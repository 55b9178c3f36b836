"""Elevator benchmark tests: traffic generation, dispatch simulation,
feature windowing, the dataset CSV format and profile documents."""
import json

import numpy as np
import pytest

from qelmkit import elevator as el
from qelmkit.errors import ConfigurationError, ValidationError


def flat_profile(rate, up=0.3, down=0.3, inter=0.4, start=0, end=el.DAY_SECONDS):
    return el.TrafficProfile([el.TrafficSegment(start, end, rate, up, down, inter)])


# ---------------------------------------------------------------------------
# config and passenger validation
# ---------------------------------------------------------------------------

def test_building_config_validation():
    with pytest.raises(ConfigurationError):
        el.BuildingConfig(num_floors=2)
    with pytest.raises(ConfigurationError):
        el.BuildingConfig(num_elevators=0)
    with pytest.raises(ConfigurationError):
        el.BuildingConfig(floor_travel_time=-1.0)


@pytest.mark.parametrize("field,value", [
    ("num_floors", 4.5), ("num_elevators", 2.5), ("num_elevators", True),
    ("capacity", float("nan")), ("capacity", "10"), ("capacity", 0),
    ("floor_travel_time", float("nan")), ("door_cycle_time", float("inf")),
    ("floor_height", 0.0), ("floor_height", True)])
def test_building_config_rejects_bad_field(field, value):
    # a NaN capacity used to pass the "<= 0" check and hang the simulation
    with pytest.raises(ConfigurationError, match=f"'{field}'"):
        el.BuildingConfig(**{field: value})


def test_passenger_validation():
    with pytest.raises(ValidationError):
        el.Passenger(10.0, 3, 3, 70.0)
    with pytest.raises(ValidationError):
        el.Passenger(el.DAY_SECONDS + 1.0, 0, 3, 70.0)


def test_segment_validation():
    with pytest.raises(ValidationError):
        el.TrafficSegment(0, 100, -1.0, 0.3, 0.3, 0.4)
    with pytest.raises(ValidationError):
        el.TrafficSegment(0, 100, 1.0, 0.5, 0.5, 0.5)
    with pytest.raises(ValidationError):
        el.TrafficSegment(100, 100, 1.0, 0.3, 0.3, 0.4)


@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("value", [float("nan"), float("inf"), "1.0", True])
def test_segment_rejects_non_numeric_fields(index, value):
    # a NaN rate_per_min used to pass and fail later inside rng.poisson
    row = [0, 100, 1.0, 0.3, 0.3, 0.4]
    row[index] = value
    with pytest.raises(ValidationError, match="finite number"):
        el.TrafficSegment(*row)


# ---------------------------------------------------------------------------
# traffic generation
# ---------------------------------------------------------------------------

def test_zero_intensity_gives_no_passengers():
    assert el.generate_traffic(el.BuildingConfig(), flat_profile(0.0), seed=1) == []


def test_poisson_count_within_three_sigma():
    # one hour at 6/min: mean 360, 3 sigma ~ 57
    profile = flat_profile(6.0, start=0, end=3600)
    passengers = el.generate_traffic(el.BuildingConfig(), profile, seed=7)
    assert abs(len(passengers) - 360) <= 57


def test_traffic_deterministic_per_seed():
    cfg = el.BuildingConfig()
    profile = el.office_day_profile()
    a = el.generate_traffic(cfg, profile, seed=3)
    b = el.generate_traffic(cfg, profile, seed=3)
    assert [(p.arrival_time, p.origin_floor, p.dest_floor) for p in a] == \
           [(p.arrival_time, p.origin_floor, p.dest_floor) for p in b]
    c = el.generate_traffic(cfg, profile, seed=4)
    assert [(p.arrival_time) for p in a] != [(p.arrival_time) for p in c]


def test_traffic_directional_mix():
    cfg = el.BuildingConfig()
    up_only = el.generate_traffic(cfg, flat_profile(2.0, 1.0, 0.0, 0.0), seed=5)
    assert all(p.origin_floor == 0 and p.dest_floor > 0 for p in up_only)
    down_only = el.generate_traffic(cfg, flat_profile(2.0, 0.0, 1.0, 0.0), seed=5)
    assert all(p.dest_floor == 0 and p.origin_floor > 0 for p in down_only)
    inter = el.generate_traffic(cfg, flat_profile(2.0, 0.0, 0.0, 1.0), seed=5)
    assert all(p.origin_floor != p.dest_floor for p in inter)
    assert all(p.arrival_time < el.DAY_SECONDS for p in inter)
    times = [p.arrival_time for p in inter]
    assert times == sorted(times)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def test_wait_zero_when_car_already_there():
    served = el.simulate(el.BuildingConfig(), [el.Passenger(50.0, 0, 4, 70.0)])
    assert served[0][1] == 0.0


def test_wait_equals_travel_time():
    cfg = el.BuildingConfig(num_elevators=1, floor_travel_time=1.0)
    served = el.simulate(cfg, [el.Passenger(0.0, 5, 0, 70.0)])
    assert served[0][1] == pytest.approx(5.0)


def test_unserved_passenger_raises(monkeypatch):
    # drop every pickup event, so no call is ever answered; the check must
    # survive `python -O`, which strips asserts
    import heapq
    from types import SimpleNamespace

    def push(events, entry):
        if entry[1] != 1:
            heapq.heappush(events, entry)

    monkeypatch.setattr(el, "heapq", SimpleNamespace(
        heapify=heapq.heapify, heappop=heapq.heappop, heappush=push))
    with pytest.raises(ValidationError, match="never served"):
        el.simulate(el.BuildingConfig(), [el.Passenger(0.0, 5, 0, 70.0)])


def test_two_simultaneous_calls_two_cars():
    cfg = el.BuildingConfig(num_elevators=2, floor_travel_time=1.0)
    passengers = [el.Passenger(10.0, 2, 6, 70.0), el.Passenger(10.0, 7, 1, 70.0)]
    served = el.simulate(cfg, passengers, start_floors=[2, 7])
    assert served[0][1] == 0.0 and served[1][1] == 0.0


def test_conservation_and_nonnegative_waits():
    cfg = el.BuildingConfig()
    passengers = el.generate_traffic(cfg, el.office_day_profile(), seed=11)
    served = el.simulate(cfg, passengers)
    assert len(served) == len(passengers)
    assert [p is q for (p, _), q in zip(served, passengers)]
    assert all(w >= 0.0 for _, w in served)


def test_more_elevators_do_not_hurt():
    profile = flat_profile(3.0, start=0, end=10000)
    passengers = el.generate_traffic(el.BuildingConfig(), profile, seed=13)
    assert len(passengers) >= 400
    one = el.simulate(el.BuildingConfig(num_elevators=1), passengers)
    two = el.simulate(el.BuildingConfig(num_elevators=2), passengers)
    assert np.mean([w for _, w in two]) <= np.mean([w for _, w in one])


def test_simulate_rejects_invalid_floor():
    with pytest.raises(ValidationError):
        el.simulate(el.BuildingConfig(num_floors=5),
                    [el.Passenger(0.0, 0, 9, 70.0)])


def test_capacity_forces_second_trip():
    # 3 passengers at the same floor, capacity 2: third one waits for return
    cfg = el.BuildingConfig(num_elevators=1, capacity=2, floor_travel_time=1.0,
                            door_cycle_time=4.0)
    passengers = [el.Passenger(0.0, 0, 5, 70.0) for _ in range(3)]
    served = el.simulate(cfg, passengers)
    waits = sorted(w for _, w in served)
    assert waits[0] == waits[1] == 0.0
    assert waits[2] > 0.0


# ---------------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------------

def test_floor_tiers_partition():
    for floors in range(3, 21):
        low, med, high = el.floor_tiers(floors)
        combined = sorted(list(low) + list(med) + list(high))
        assert combined == list(range(floors))


def test_windowize_feature_definitions():
    cfg = el.BuildingConfig(num_floors=10, floor_height=3.0)
    # tiers for 10 floors: low [0,4), medium [4,6), high [6,10)
    served = [
        (el.Passenger(10.0, 0, 4, 70.0), 4.0),    # up from low, distance 12 m
        (el.Passenger(20.0, 1, 5, 70.0), 8.0),    # up from low
        (el.Passenger(30.0, 8, 2, 70.0), 6.0),    # down from high
    ]
    ds = el.windowize(cfg, served)
    w0 = ds.windows[0]
    f = w0.raw_features
    assert f[0] == 2 and f[5] == 1                      # f1, f6
    assert f[1] == f[2] == f[3] == f[4] == 0
    assert f[6] == pytest.approx((12.0 + 12.0) / 2)     # f7: both up trips 4 floors
    assert f[7] == pytest.approx(18.0)                  # f8: 6 floors down
    assert f[8] == 0 and f[9] == 0                      # f9, f10: first window
    assert f[10] == 2 and f[11] == 1                    # f11, f12
    assert w0.awt == pytest.approx(6.0)
    assert not w0.empty


def test_windowize_lag_features():
    cfg = el.BuildingConfig()
    served = [
        (el.Passenger(10.0, 0, 4, 70.0), 1.0),
        (el.Passenger(400.0, 5, 0, 70.0), 2.0),
    ]
    ds = el.windowize(cfg, served)
    assert ds.windows[1].raw_features[8] == 1.0   # f9 = previous window's f11
    assert ds.windows[1].raw_features[9] == 0.0
    assert ds.windows[2].raw_features[8] == 0.0
    assert ds.windows[2].raw_features[9] == 1.0


def test_windowize_empty_flag_and_count():
    cfg = el.BuildingConfig()
    ds = el.windowize(cfg, [(el.Passenger(10.0, 0, 4, 70.0), 4.0)])
    assert len(ds.windows) == el.DAY_SECONDS // el.WINDOW_SECONDS
    assert not ds.windows[0].empty
    assert ds.windows[1].empty and ds.windows[1].awt == 0.0
    trimmed = ds.drop_empty()
    assert len(trimmed) == 1


def test_feature_consistency_on_generated_day():
    cfg = el.BuildingConfig()
    ds = el.simulate_day(cfg, el.office_day_profile(), seed=2)
    f = ds.feature_matrix()
    np.testing.assert_allclose(f[:, 10], f[:, 0] + f[:, 1] + f[:, 2])
    np.testing.assert_allclose(f[:, 11], f[:, 3] + f[:, 4] + f[:, 5])
    assert np.all(f[:, :6] >= 0) and np.all(f[:, 6:8] >= 0)
    assert np.all(ds.awt_values() >= 0)
    # call totals match passenger count
    passengers = el.generate_traffic(cfg, el.office_day_profile(), seed=2)
    assert f[:, 10].sum() + f[:, 11].sum() == len(passengers)


# ---------------------------------------------------------------------------
# feature sets
# ---------------------------------------------------------------------------

def test_select_features_columns():
    cfg = el.BuildingConfig()
    ds = el.simulate_day(cfg, el.office_day_profile(), seed=3)
    full = ds.feature_matrix()
    fs2 = el.select_features(ds, "FS2")
    assert fs2.feature_names == ("f11", "f12")
    np.testing.assert_array_equal(fs2.feature_matrix(), full[:, [10, 11]])
    fs3b = el.select_features(ds, "FS3b")
    np.testing.assert_array_equal(fs3b.feature_matrix(), full[:, [10, 11, 0]])
    fs10 = el.select_features(ds, "FS10")
    assert fs10.feature_names == tuple(f"f{i}" for i in range(1, 11))
    np.testing.assert_array_equal(fs10.feature_matrix(), full[:, :10])


def test_select_features_errors():
    ds = el.simulate_day(el.BuildingConfig(), el.office_day_profile(), seed=3)
    with pytest.raises(ConfigurationError):
        el.select_features(ds, "FS7")
    projected = el.select_features(ds, "FS2")
    with pytest.raises(ConfigurationError):
        el.select_features(projected, "FS2")


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def test_dataset_csv_roundtrip(tmp_path):
    ds = el.simulate_day(el.BuildingConfig(), el.office_day_profile(), seed=5,
                         label="Day1")
    path = tmp_path / "Day1.csv"
    el.write_dataset_csv(path, ds)
    header = path.read_text().splitlines()[0]
    assert header == ("window_start_s,f1,f2,f3,f4,f5,f6,f7,f8,f9,f10,f11,f12,"
                      "awt_s,empty")
    loaded = el.read_dataset_csv(path)
    assert loaded.label == "Day1"
    np.testing.assert_array_equal(loaded.feature_matrix(), ds.feature_matrix())
    np.testing.assert_array_equal(loaded.awt_values(), ds.awt_values())
    np.testing.assert_array_equal(loaded.empty_mask(), ds.empty_mask())


def test_dataset_csv_rejects_projected(tmp_path):
    ds = el.simulate_day(el.BuildingConfig(), el.office_day_profile(), seed=5)
    with pytest.raises(ValidationError):
        el.write_dataset_csv(tmp_path / "x.csv", el.select_features(ds, "FS2"))


def test_profile_json_roundtrip():
    # the segments object a config's 'datasets.generate.profile' holds
    profile = el.office_day_profile()
    doc = json.loads(json.dumps({"segments": [vars(s) for s in profile.segments]}))
    loaded = el.TrafficProfile.from_dict(doc)
    assert [vars(s) for s in loaded.segments] == [vars(s) for s in profile.segments]
    doc["segments"][0]["rate_per_min"] = -1.0
    with pytest.raises(ValidationError):
        el.TrafficProfile.from_dict(doc)


def test_vary_profile_scales_rates_only():
    base = el.office_day_profile()
    varied = el.vary_profile(base, seed=9, jitter=0.2)
    for a, b in zip(base.segments, varied.segments):
        assert a.start_s == b.start_s and a.end_s == b.end_s
        assert a.up_fraction == b.up_fraction
        assert 0.8 * a.rate_per_min <= b.rate_per_min <= 1.2 * a.rate_per_min
