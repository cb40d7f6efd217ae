"""Every error type says whose fault it is, and the CLI's exit code follows from that alone."""

import inspect

import pytest

from rotenc import cli, errors
from rotenc.errors import InputError, RotencError

# faults of the program, not of its input: the CLI reports them as internal errors and exits 1.
# Diverged is one: a loss that turns non-finite on accepted data and config is the trainer's fault
PROGRAM_FAULTS = {"ShapeError", "NotScalar", "StaleGradient", "InvalidQuaternion", "NotCentered", "Diverged"}

ERROR_TYPES = sorted(
    (cls for cls in vars(errors).values()
     if inspect.isclass(cls) and issubclass(cls, RotencError) and cls not in (RotencError, InputError)),
    key=lambda cls: cls.__name__,
)


def _instance(cls):
    try:
        return cls("boom")
    except TypeError:  # ParseError and Diverged carry a location
        return cls(3, "boom")


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_each_error_type_is_an_input_error_or_a_listed_program_fault(cls):
    assert issubclass(cls, InputError) != (cls.__name__ in PROGRAM_FAULTS)


def test_every_listed_program_fault_exists():
    assert PROGRAM_FAULTS <= {cls.__name__ for cls in ERROR_TYPES}


@pytest.mark.parametrize("exc", [*map(_instance, ERROR_TYPES), FileExistsError(17, "File exists")],
                         ids=lambda exc: type(exc).__name__)
def test_exit_code_follows_the_error_class(monkeypatch, capsys, tmp_path, exc):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_align", fail)
    code = cli.main(["align", "--data", "d.jsonl", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    if isinstance(exc, (InputError, OSError)):
        assert code == 2 and err.startswith("error: ")
    else:
        assert code == 1 and err.startswith("internal error: ")
    assert str(exc) in err


def test_the_cli_keeps_no_list_of_its_own():
    assert not hasattr(cli, "USAGE_ERRORS") and not hasattr(cli, "UsageError")
