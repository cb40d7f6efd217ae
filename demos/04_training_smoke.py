# Training end to end on a synthetic task
#
# 250 random molecules, target = radius of gyration (a rotation-invariant,
# purely geometric quantity). A small model with the full pipeline -- graph
# backbone, rotation-averaged 3D encoder, fused regression head -- learns it
# in under a minute and beats the predict-the-mean baseline on held-out
# molecules. Also shows the measured rotational-invariance error of the
# trained model with and without post-alignment.

from rotenc.data import SplitSpec, dataset_targets, split
from rotenc.encoder3d import EncoderConfig
from rotenc.gnn import GnnConfig
from rotenc.model import ModelConfig, measure_invariance
from rotenc.synthetic import make_records
from rotenc.trainer import TrainConfig, evaluate_model, model_from_checkpoint, train_epochs

records = make_records(250, seed=8)
cfg = TrainConfig(
    model=ModelConfig(
        encoder=EncoderConfig(widths=(32, 32), embed_dim=8, k=4, seed=0, align_mode="none"),
        gnn=GnnConfig(layers=2, hidden=16, message_width=16),
        g_dim=16, head_hidden=64, cutoff=8.0,
    ),
    split=SplitSpec(mode="holdout", train_fraction=0.8, seed=1),
    epochs=30, batch_size=16, lr=5e-3, seed=7, lambda_l1=1e-4,
)

# train_epochs yields the run state after every epoch, so progress shows while it trains
print("epoch  train_loss  val_mae", flush=True)
for state, entry in train_epochs(cfg, records):
    if entry["epoch"] % 5 == 0 or entry["epoch"] == cfg.epochs - 1:
        print(f"{entry['epoch']:>5}  {entry['train_loss']:>10.4f}  {entry['val_mae']['rg']:>8.4f}", flush=True)
checkpoint = state.best

_, test_idx = split(records, cfg.split)
test_records = [records[i] for i in test_idx]
model, normalizer = model_from_checkpoint(checkpoint)
_, targets = dataset_targets(test_records)
metrics = evaluate_model(model, normalizer, [model.prepare(r) for r in test_records], targets)
print(f"\nheld-out ({len(test_idx)} molecules): MAE = {metrics.mae['rg']:.4f}  "
      f"RMSE = {metrics.rmse['rg']:.4f}  R2 = {metrics.r2['rg']:.3f}")

# rotational invariance of the trained model: the k-view average leaves a
# small residual; aligning at inference removes it entirely
report = measure_invariance(model, records[:10], n_rotations=25, seed=3)
print(f"\ninvariance error (no alignment): mean = {report.mean_dev:.4f}, max = {report.max_dev:.4f}")

from dataclasses import replace

model.cfg = replace(model.cfg, encoder=replace(model.cfg.encoder, align_mode="post"))
report = measure_invariance(model, records[:10], n_rotations=25, seed=3)
print(f"invariance error (post-align):   mean = {report.mean_dev:.1e}, max = {report.max_dev:.1e}")
