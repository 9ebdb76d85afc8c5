import pickle
from dataclasses import replace

import pytest

from smm.errors import SmmError, InvalidModelError, NotPositiveDefiniteError
from smm.fixtures import reference_model_spec
from smm.model_spec import free, validate


def invalid_model_error():
    # free intercepts and a free factor mean leave the mean structure underidentified
    spec = reference_model_spec()
    return InvalidModelError(validate(replace(spec, intercepts=tuple(free() for _ in range(5)))))


@pytest.mark.parametrize(
    "make",
    [lambda: SmmError("BAD_INPUT", "x"), lambda: NotPositiveDefiniteError("not PD"), invalid_model_error],
    ids=["SmmError", "NotPositiveDefiniteError", "InvalidModelError"],
)
def test_errors_survive_pickling(make):
    # a pool worker's error reaches the caller through pickle
    error = make()
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert (back.code, back.message, str(back)) == (error.code, error.message, str(error))
    if isinstance(error, InvalidModelError):
        assert back.report == error.report and back.report.codes() == error.report.codes()
