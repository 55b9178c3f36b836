"""The field checks every input goes through, and a scan that keeps them the
only copies in the package."""
import pathlib
import re

import numpy as np
import pytest

import qelmkit
from qelmkit import qelm
from qelmkit.errors import (ConfigurationError, ValidationError, check_keys, check_number,
                            number_array, read_only, require_finite)


@pytest.mark.parametrize("value,integer", [
    (3, True), (3, False), (-2.5, False), (0, True),
    (np.int64(7), True), (np.int32(7), False), (np.float64(0.5), False),
    (np.float32(-1.5), False),
    (10 ** 400, True), (-10 ** 400, True),   # integer fields take any size
    (10 ** 308, False), (-10 ** 308, False),   # within the float range
])
def test_check_number_accepts(value, integer):
    assert check_number("f", value, integer=integer) is value


@pytest.mark.parametrize("value,integer", [
    (True, False), (False, True), (np.bool_(True), False),
    ("1", False), ("1", True), (None, False), ([1.0], False), (1 + 0j, False),
    (float("nan"), False), (float("inf"), False), (float("-inf"), False),
    (np.float64("nan"), False), (np.float32("inf"), False),
    (2.0, True), (np.float64(2.0), True), (float("nan"), True),
    # beyond the float range: math.isfinite would overflow, np.sqrt raise TypeError
    (10 ** 400, False), (-10 ** 400, False), (2 ** 1024, False),
])
def test_check_number_rejects(value, integer):
    kind = "integer" if integer else "number"
    with pytest.raises(ConfigurationError, match=f"field 'f' must be a finite {kind}"):
        check_number("f", value, integer=integer)


def test_check_number_raises_the_given_error():
    with pytest.raises(ValidationError, match="'time_step'"):
        check_number("time_step", float("nan"), error=ValidationError)


def test_float_fields_reject_integers_beyond_the_float_range():
    # used to reach np.sqrt and raise a raw TypeError
    with pytest.raises(ValidationError, match="field 'ridge_lambda'"):
        qelm.fit_readout(np.eye(2), [1.0, 2.0], ridge_lambda=10 ** 400)
    with pytest.raises(ValidationError, match="field 'time_step'"):
        qelm.IsingParams(2, np.zeros((2, 2)), np.zeros(2), time_step=10 ** 400)
    # integer fields still take any size
    assert qelm.EncoderSpec("RHE", 2, seed=10 ** 400).axis_assignment


@pytest.mark.parametrize("value,expected", [
    ([1, 2.5], [1.0, 2.5]), ([[0, -1], [2, 3]], [[0.0, -1.0], [2.0, 3.0]]),
    (np.arange(3), [0.0, 1.0, 2.0]), (np.float32([0.5]), [0.5]), ([], []),
])
def test_number_array_accepts(value, expected):
    values = number_array("f", value)
    assert values.dtype == float
    np.testing.assert_array_equal(values, expected)


@pytest.mark.parametrize("value,message", [
    (["a", 1.0], "real numbers"), (["1.5"], "real numbers"), ([True, False], "real numbers"),
    ([1j], "real numbers"), ([[1.0], [1.0, 2.0]], "real numbers"), ([None], "real numbers"),
    ([[1.0, {}]], "real numbers"), ([1.0, float("nan")], "finite"), ([float("-inf")], "finite"),
])
def test_number_array_rejects(value, message):
    with pytest.raises(ValidationError, match=f"field 'f' must .*{message}"):
        number_array("f", value)
    with pytest.raises(ConfigurationError, match="'f'"):
        number_array("f", value, error=ConfigurationError)


def test_require_finite_checks_every_array():
    require_finite("x", np.zeros(3), [1.0, -2.0], 5.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="field 'x/y' must be finite"):
            require_finite("x/y", np.zeros(3), np.array([[1.0], [bad]]))
    with pytest.raises(ConfigurationError, match="'x'"):
        require_finite("x", [np.nan], error=ConfigurationError)


def test_check_keys_names_the_object_and_the_key():
    doc = {"seed": 1, "num_days": 2}
    assert check_keys("datasets.generate", doc, ("seed", "num_days")) is doc
    with pytest.raises(ConfigurationError, match=r"datasets.generate has unknown key 'sede' "
                                                 r"\(field 'datasets.generate.sede'\)"):
        check_keys("datasets.generate", {"seed": 1, "sede": 3}, ("seed", "num_days"),
                   error=ConfigurationError)
    with pytest.raises(ValidationError, match="pipeline readout must be a JSON object, got list"):
        check_keys("pipeline readout", [], ("weights",))


def test_read_only_views_without_copying():
    base = np.arange(4.0)
    view = read_only(base)
    assert np.shares_memory(view, base) and not view.flags.writeable
    assert base.flags.writeable   # the caller's array keeps its flags
    assert read_only(view) is view
    pair = (view, read_only(np.zeros(2)))
    assert read_only(pair) is pair   # read-only already: nothing new
    nested = read_only((base, (1, base), None))
    assert not nested[0].flags.writeable and not nested[1][1].flags.writeable
    assert nested[1][0] == 1 and nested[2] is None
    assert not number_array("f", base).flags.writeable


def test_field_checks_live_only_in_errors_module():
    # every other module calls check_number / require_finite, so a new field
    # cannot grow its own, subtly different copy of the check
    pattern = re.compile(r"numbers\.|isinstance\([^)]*bool\)|np\.isfinite")
    package = pathlib.Path(qelmkit.__file__).parent
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(package.glob("*.py")) if path.name != "errors.py"
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if pattern.search(line)]
    assert found == []
