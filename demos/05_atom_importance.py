# Gradient-based atom importance
#
# Which atoms drive a prediction? Backpropagating the output to the input
# features gives a per-atom sensitivity: the norm of the gradient w.r.t.
# each atom's coordinates, embedding row, and graph features, normalized so
# the most influential atom scores 1. The coordinate part is checked here
# against brute-force finite differences.

from dataclasses import replace

import numpy as np

from rotenc.data import SplitSpec
from rotenc.model import atom_importance
from rotenc.synthetic import make_records
from rotenc.trainer import TrainConfig, model_from_checkpoint, train
from rotenc.encoder3d import EncoderConfig
from rotenc.gnn import GnnConfig
from rotenc.model import ModelConfig

records = make_records(60, seed=5)
cfg = TrainConfig(
    model=ModelConfig(
        encoder=EncoderConfig(widths=(16, 16), embed_dim=4, k=4, seed=0),
        gnn=GnnConfig(layers=2, hidden=12, message_width=12),
        g_dim=12, head_hidden=32, cutoff=8.0,
    ),
    split=SplitSpec(mode="holdout", train_fraction=0.8, seed=1),
    epochs=15, batch_size=16, lr=5e-3, seed=3,
)
checkpoint, _ = train(cfg, records)
model, _ = model_from_checkpoint(checkpoint)

record = records[0]
scores, coord_part = atom_importance(model, record, task_index=0)

print(f"molecule {record.id}: target rg = {record.targets['rg']:.3f}")
print(f"{'atom':>4} {'z':>3} {'dist_from_center':>17} {'score':>7} {'coord_grad':>11}")
center = record.coords - record.coords.mean(axis=0)
for i in range(record.n_atoms):
    print(f"{i:>4} {record.atomic_numbers[i]:>3} {np.linalg.norm(center[i]):>17.3f} "
          f"{scores[i]:>7.3f} {coord_part[i]:>11.4f}")

# for the radius of gyration itself, coordinate sensitivity grows with
# distance from the centroid; how closely a lightly trained toy model
# follows that pattern varies, so treat this number as exploratory
rho = np.corrcoef(np.linalg.norm(center, axis=1), coord_part)[0, 1]
print(f"\ncorrelation(coordinate sensitivity, distance from centroid) = {rho:.3f}")

# finite-difference spot check of the coordinate sensitivity of atom 0;
# the graph stays that of the unmoved molecule, only the cloud moves
h = 1e-4
graph = model.prepare(record).graph
fd_sq = 0.0
for axis in range(3):
    outs = []
    for sign in (+1, -1):
        coords = record.coords.copy()
        coords[0, axis] += sign * h
        moved = model.prepare(replace(record, coords=coords))
        y, _ = model.forward(replace(moved, graph=graph))
        outs.append(y.data[0, 0])
    fd_sq += ((outs[0] - outs[1]) / (2 * h)) ** 2
print(f"atom 0: analytic coord gradient = {coord_part[0]:.6f}, finite difference = {np.sqrt(fd_sq):.6f}")
