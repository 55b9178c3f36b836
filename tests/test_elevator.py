"""Elevator benchmark tests: traffic generation, dispatch simulation,
feature windowing, the dataset CSV format and profile documents."""
import heapq
import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from qelmkit import elevator as el
from qelmkit.errors import ConfigurationError, ShapeError, ValidationError


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
    assert all(p is q for (p, _), q in zip(served, passengers))
    assert all(w >= 0.0 for _, w in served)


def test_more_elevators_do_not_hurt():
    profile = flat_profile(3.0, start=0, end=10000)
    passengers = el.generate_traffic(el.BuildingConfig(), profile, seed=13)
    assert len(passengers) >= 400
    one = el.simulate(el.BuildingConfig(num_elevators=1), passengers)
    two = el.simulate(el.BuildingConfig(num_elevators=2), passengers)
    assert np.mean([w for _, w in two]) <= np.mean([w for _, w in one])


@pytest.mark.parametrize("start_floors", [[99, 0, 0], [-1, 0, 0], [10, 0, 0],
                                          [2.5, 0, 0], [0, True, 0], [0, 0, "3"]])
def test_simulate_rejects_bad_start_floors(start_floors):
    # [99, 0, 0] used to return a 7.5 s wait, [2.5, 0, 0] one of 3.75 s
    with pytest.raises(ConfigurationError, match="start_floors"):
        el.simulate(el.BuildingConfig(num_floors=10), [el.Passenger(0.0, 5, 0, 70.0)],
                    start_floors=start_floors)


def test_simulate_rejects_invalid_floor():
    # floors that are not integers used to be served: 2.5 got a 3.75 s wait
    ok = el.Passenger(0.0, 1, 2, 70.0)
    for num_floors, origin, dest in [(5, 0, 9), (10, 2.5, 0), (10, True, 0), (10, 0, 3.0)]:
        with pytest.raises(ValidationError, match="arrival_time=5.0"):
            el.simulate(el.BuildingConfig(num_floors=num_floors),
                        [ok, el.Passenger(5.0, origin, dest, 70.0)])


def test_simulate_accepts_numpy_integer_floors():
    config = el.BuildingConfig()
    passengers = [el.Passenger(0.0, 0, 5, 70.0), el.Passenger(1.0, 7, 2, 70.0)]
    as_numpy = [el.Passenger(p.arrival_time, np.int64(p.origin_floor),
                             np.int64(p.dest_floor), p.weight_kg) for p in passengers]
    assert [w for _, w in el.simulate(config, as_numpy)] == \
        [w for _, w in el.simulate(config, passengers)]


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
    f = ds.features[0]
    assert f[0] == 2 and f[5] == 1                      # f1, f6
    assert f[1] == f[2] == f[3] == f[4] == 0
    assert f[6] == pytest.approx((12.0 + 12.0) / 2)     # f7: both up trips 4 floors
    assert f[7] == pytest.approx(18.0)                  # f8: 6 floors down
    assert f[8] == 0 and f[9] == 0                      # f9, f10: first window
    assert f[10] == 2 and f[11] == 1                    # f11, f12
    assert ds.awt[0] == pytest.approx(6.0)
    assert not ds.empty[0]


def test_windowize_lag_features():
    cfg = el.BuildingConfig()
    served = [
        (el.Passenger(10.0, 0, 4, 70.0), 1.0),
        (el.Passenger(400.0, 5, 0, 70.0), 2.0),
    ]
    ds = el.windowize(cfg, served)
    assert ds.features[1, 8] == 1.0   # f9 = previous window's f11
    assert ds.features[1, 9] == 0.0
    assert ds.features[2, 8] == 0.0
    assert ds.features[2, 9] == 1.0


def test_windowize_empty_flag_and_count():
    cfg = el.BuildingConfig()
    ds = el.windowize(cfg, [(el.Passenger(10.0, 0, 4, 70.0), 4.0)])
    assert len(ds) == el.DAY_SECONDS // el.WINDOW_SECONDS
    assert not ds.empty[0]
    assert ds.empty[1] and ds.awt[1] == 0.0
    trimmed = ds.drop_empty()
    assert len(trimmed) == 1


def test_feature_matrix_of_no_windows_keeps_its_columns():
    ds = el.windowize(el.BuildingConfig(), [])
    assert ds.empty.all()
    assert ds.drop_empty().feature_matrix().shape == (0, 12)
    assert el.select_features(ds, "FS2").drop_empty().feature_matrix().shape == (0, 2)


def test_windowize_rejects_invalid_floor():
    # these used to be counted: origin 99 as a medium-tier down call of 297 m
    served = [(el.Passenger(0.0, 1, 2, 70.0), 3.0)]
    for origin, dest in [(2.5, 0), (99, 0), (0, -4)]:
        with pytest.raises(ValidationError, match="arrival_time=5.0"):
            el.windowize(el.BuildingConfig(num_floors=10),
                         served + [(el.Passenger(5.0, origin, dest, 70.0), 1.0)])


def test_dataset_rejects_columns_of_other_shapes():
    starts, features, awt, empty = np.arange(3.0), np.zeros((3, 2)), np.zeros(3), np.zeros(3)
    names = ("f11", "f12")
    for columns in [(starts[:2], features, awt, empty), (starts, features[:2], awt, empty),
                    (starts, features, awt[:2], empty), (starts, features, awt, empty[:2]),
                    (starts, features[:, 0], awt, empty), (starts[0], features, awt, empty)]:
        with pytest.raises(ShapeError, match="one entry per window"):
            el.Dataset("x", *columns, feature_names=names)
    for names in [("f11", "f12", "f7"), ("f11",), el.FEATURE_NAMES]:
        with pytest.raises(ShapeError, match=f"{len(names)} feature columns"):
            el.Dataset("x", starts, features, awt, empty, feature_names=names)


def test_dataset_columns_are_read_only():
    day = el.simulate_day(el.BuildingConfig(), el.office_day_profile(), seed=3)
    projected = el.select_features(day, "FS2")
    before = [a.copy() for a in (day.features, day.awt, projected.features, projected.awt)]
    for column in (day.feature_matrix(), projected.feature_matrix(),
                   day.awt_values(), projected.awt_values(), day.empty, day.starts):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 99.0
    for a, b in zip(before, (day.features, day.awt, projected.features, projected.awt)):
        np.testing.assert_array_equal(a, b)
    assert day.starts.dtype == day.features.dtype == day.awt.dtype == np.float64
    assert day.empty.dtype == bool
    # the caller's own arrays stay writable
    awt = np.zeros(3)
    el.Dataset("x", np.arange(3.0), np.zeros((3, 2)), awt, np.zeros(3), ("f11", "f12"))
    awt[0] = 1.0


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
    np.testing.assert_array_equal(loaded.empty, ds.empty)


@pytest.mark.parametrize("bad", [
    "0.0,1,0,0,0,0,0,3.0,0,0,0,1,nan,12.5,0",    # a column FS2 reads
    "0.0,1,0,nan,0,0,0,3.0,0,0,0,1,0,12.5,0",    # f3, which FS2 does not read
    "inf,1,0,0,0,0,0,3.0,0,0,0,1,0,12.5,0",
    "0.0,1,0,0,0,0,0,3.0,0,0,0,1,0,-inf,0",
    "0.0,1,0,0,0,0,0,3.0,oops,0,0,1,0,12.5,0",
    "0.0,1,0,0,0,0,0,3.0,0,0,0,1,0,12.5",        # short: was a raw IndexError
    "0.0,1,0,0,0,0,0,3.0,0,0,0,1,0,12.5,x",      # was a raw ValueError
    "0.0,1,0,0,0,0,0,3.0,0,0,0,1,0,12.5,2",      # read silently as empty
    "300.0,1,0,0,0,0,0,3.0,0,0,0,1,0,12.5,1",    # calls, flagged empty
    "300.0,0,0,0,0,0,0,0,0,0,0,0,0,40.0,0",      # no calls, kept for training
    "300.0,0,0,0,0,0,0,0,0,0,0,0,0,40.0,1",      # empty, yet a waiting time
    "0.0,1,0,0,0,0,0,3.0,0,0,0,1,0,12.5,0",      # two windows start at 0.0
    "-300.0,1,0,0,0,0,0,3.0,0,0,0,1,0,12.5,0",   # starts before the last one
    "300.0,0,0,0,0,0,0,0,0,0,0,5,0,12.5,0",      # five up calls no tier holds
    "300.0,-1,0,0,0.5,0,0,3.0,0,0,0,-1,0,12.5,0",  # negative and fractional calls
    "300.0,1,0,0,0,0,0,3.0,0,0.5,0,1,0,12.5,0",  # fractional f9
    "300.0,1,0,0,0,0,0,3.0,0,0,-1,1,0,12.5,0",   # negative f10
    "300.0,1,0,0,0,1,0,3.0,3.0,0,0,1,0,12.5,0",  # f12 = 0 but f5 = 1
    "300.0,1,0,0,0,0,0,-3.0,0,0,0,1,0,12.5,0",   # negative f7
    "300.0,0,0,0,1,0,0,0,-3.0,0,0,0,1,12.5,0",   # negative f8
    "300.0,1,0,0,0,0,0,3.0,0,1,0,1,0,-2.0,0"])   # negative awt_s
def test_read_dataset_csv_rejects_bad_rows(tmp_path, bad):
    path = tmp_path / "Day1.csv"
    path.write_text(",".join(el.DATASET_HEADER) + "\n"
                    "0.0,1,0,0,0,0,0,3.0,0,0,0,1,0,12.5,0\n"
                    f"{bad}\n")
    with pytest.raises(ValidationError, match="row 3") as exc:
        el.read_dataset_csv(path)
    assert "Day1.csv" in str(exc.value)


def test_read_dataset_csv_accepts_windows_left_out(tmp_path):
    # f9 of the 600 s window is not the 0 s window's f11: the 300 s one is missing
    path = tmp_path / "Day1.csv"
    path.write_text(",".join(el.DATASET_HEADER) + "\n"
                    "0.0,1,0,0,0,0,0,3.0,0,0,0,1,0,12.5,0\n"
                    "600.0,0,0,0,0,0,1,0,9.0,0,2,0,1,4.0,0\n")
    loaded = el.read_dataset_csv(path)
    assert loaded.starts.tolist() == [0.0, 600.0]
    assert loaded.empty.tolist() == [False, False]


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


def test_profile_rejects_overlaps_and_unknown_keys():
    # an overlap used to get the sum of both rates, an extra key was dropped
    first = el.TrafficSegment(0, 100, 1.0, 0.3, 0.3, 0.4)
    with pytest.raises(ValidationError, match="overlap"):
        el.TrafficProfile([el.TrafficSegment(50, 200, 2.0, 0.3, 0.3, 0.4), first])
    touching = el.TrafficProfile([el.TrafficSegment(100, 200, 2.0, 0.3, 0.3, 0.4), first])
    assert len(touching.segments) == 2   # [0, 100) and [100, 200) only touch
    with pytest.raises(ValidationError, match="segmnts_extra"):
        el.TrafficProfile.from_dict({"segments": [vars(first)], "segmnts_extra": 1})


def test_vary_profile_scales_rates_only():
    base = el.office_day_profile()
    varied = el.vary_profile(base, seed=9, jitter=0.2)
    for a, b in zip(base.segments, varied.segments):
        assert a.start_s == b.start_s and a.end_s == b.end_s
        assert a.up_fraction == b.up_fraction
        assert 0.8 * a.rate_per_min <= b.rate_per_min <= 1.2 * a.rate_per_min


# ---------------------------------------------------------------------------
# agreement with the plain per-passenger implementation
# ---------------------------------------------------------------------------
# Plain object-per-passenger implementations of generate_traffic, simulate
# and windowize, kept as the oracle: every day the module generates must
# equal theirs bit for bit, since seeded instances and stored results rest
# on it.

def reference_generate_traffic(config, profile, seed):
    rng = np.random.default_rng(seed)
    floors = config.num_floors
    passengers = []
    for seg in profile.segments:
        mean = seg.rate_per_min * (seg.end_s - seg.start_s) / 60.0
        count = int(rng.poisson(mean))
        times = np.sort(rng.uniform(seg.start_s, seg.end_s, size=count))
        kinds = rng.choice(3, size=count, p=[seg.up_fraction, seg.down_fraction,
                                             seg.interfloor_fraction])
        for t, kind in zip(times, kinds):
            if kind == 0:
                origin, dest = 0, int(rng.integers(1, floors))
            elif kind == 1:
                origin, dest = int(rng.integers(1, floors)), 0
            else:
                origin = int(rng.integers(0, floors))
                dest = int(rng.integers(0, floors - 1))
                if dest >= origin:
                    dest += 1
            weight = float(np.clip(rng.normal(75.0, 15.0), 35.0, 135.0))
            passengers.append(el.Passenger(float(t), origin, dest, weight))
    passengers.sort(key=lambda p: p.arrival_time)
    return passengers


@dataclass
class ReferenceCar:
    floor: int
    busy: bool = False
    pending: list = field(default_factory=list)
    est_free_at: float = 0.0
    est_free_floor: int = 0


def reference_simulate(config, passengers, start_floors=None):
    if start_floors is None:
        start_floors = [0] * config.num_elevators
    ftt, door = config.floor_travel_time, config.door_cycle_time
    cars = [ReferenceCar(floor=f, est_free_floor=f) for f in start_floors]
    waits = [None] * len(passengers)
    order = sorted(range(len(passengers)), key=lambda i: passengers[i].arrival_time)
    events = []
    counter = 0
    for i in order:
        events.append((passengers[i].arrival_time, 0, counter, i))
        counter += 1
    heapq.heapify(events)

    def start_pickup(ci, now):
        nonlocal counter
        car = cars[ci]
        if not car.pending:
            car.busy = False
            car.est_free_at, car.est_free_floor = now, car.floor
            return
        car.busy = True
        head = passengers[car.pending[0]]
        travel = abs(car.floor - head.origin_floor) * ftt
        heapq.heappush(events, (now + travel, 1, counter, ci))
        counter += 1

    def handle_pickup(ci, now):
        nonlocal counter
        car = cars[ci]
        head = passengers[car.pending[0]]
        floor = head.origin_floor
        car.floor = floor
        up = head.goes_up
        boarded = []
        for pid in list(car.pending):
            p = passengers[pid]
            if (p.origin_floor == floor and p.goes_up == up
                    and p.arrival_time <= now and len(boarded) < config.capacity):
                boarded.append(pid)
        for pid in boarded:
            waits[pid] = now - passengers[pid].arrival_time
            car.pending.remove(pid)
        dests = sorted({passengers[pid].dest_floor for pid in boarded}, reverse=not up)
        finish = now + door
        cursor = floor
        for d in dests:
            finish += abs(d - cursor) * ftt + door
            cursor = d
        car.floor = cursor
        heapq.heappush(events, (finish, 2, counter, ci))
        counter += 1

    while events:
        now, kind, _, payload = heapq.heappop(events)
        if kind == 0:
            p = passengers[payload]
            best_ci, best_eta = 0, math.inf
            for ci, car in enumerate(cars):
                ready = max(car.est_free_at, now)
                eta = ready + abs(car.est_free_floor - p.origin_floor) * ftt
                if eta < best_eta:
                    best_ci, best_eta = ci, eta
            car = cars[best_ci]
            car.pending.append(payload)
            car.est_free_at = best_eta + door + abs(p.dest_floor - p.origin_floor) * ftt + door
            car.est_free_floor = p.dest_floor
            if not car.busy:
                start_pickup(best_ci, now)
        elif kind == 1:
            handle_pickup(payload, now)
        else:
            start_pickup(payload, now)
    return [(p, float(w)) for p, w in zip(passengers, waits)]


def reference_windowize(config, served, label="day"):
    low, _, high = el.floor_tiers(config.num_floors)
    num_windows = math.ceil(el.DAY_SECONDS / el.WINDOW_SECONDS)
    buckets = [[] for _ in range(num_windows)]
    for p, wait in served:
        buckets[int(p.arrival_time // el.WINDOW_SECONDS)].append((p, wait))
    rows, awts = [], []
    prev_up = prev_down = 0.0
    for bucket in buckets:
        f = np.zeros(12)
        up_dist, down_dist, waits = [], [], []
        for p, wait in bucket:
            tier = 0 if p.origin_floor in low else (2 if p.origin_floor in high else 1)
            dist = abs(p.dest_floor - p.origin_floor) * config.floor_height
            if p.goes_up:
                f[tier] += 1
                up_dist.append(dist)
            else:
                f[3 + tier] += 1
                down_dist.append(dist)
            waits.append(wait)
        f[6] = float(np.mean(up_dist)) if up_dist else 0.0
        f[7] = float(np.mean(down_dist)) if down_dist else 0.0
        f[8], f[9] = prev_up, prev_down
        f[10] = f[0] + f[1] + f[2]
        f[11] = f[3] + f[4] + f[5]
        rows.append(f)
        awts.append(float(np.mean(waits)) if waits else 0.0)
        prev_up, prev_down = f[10], f[11]
    starts = [float(i * el.WINDOW_SECONDS) for i in range(num_windows)]
    return el.Dataset(label, starts, rows, awts, [not bucket for bucket in buckets])


def passenger_fields(passengers):
    return [(p.arrival_time, p.origin_floor, p.dest_floor, p.weight_kg) for p in passengers]


def assert_same_days(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.label, a.feature_names, len(a)) == (b.label, b.feature_names, len(b))
        for column in ("starts", "features", "awt", "empty"):
            x, y = getattr(a, column), getattr(b, column)
            assert x.dtype == y.dtype == (bool if column == "empty" else np.float64)
            assert x.tolist() == y.tolist()


def assert_same_pipeline(config, passengers, start_floors=None, shuffle_seed=None):
    served = el.simulate(config, passengers, start_floors)
    want = reference_simulate(config, passengers, start_floors)
    assert all(p is q for (p, _), (q, _) in zip(served, want))
    assert [w for _, w in served] == [w for _, w in want]
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(served))
        served = [served[i] for i in order]
    assert_same_days([el.windowize(config, served, label="x")],
                     [reference_windowize(config, served, label="x")])


@pytest.mark.parametrize("seed", [18, 7, 3, 11])
@pytest.mark.parametrize("awt", ["simulated", "nonlinear"])
def test_generated_days_match_reference(monkeypatch, seed, awt):
    from qelmkit import harness
    spec = {"seed": seed, "awt": awt, "num_days": 2}
    got = harness.generate_days(spec)
    monkeypatch.setattr(el, "generate_traffic", reference_generate_traffic)
    monkeypatch.setattr(el, "simulate", reference_simulate)
    monkeypatch.setattr(el, "windowize", reference_windowize)
    assert_same_days(got, harness.generate_days(spec))


@pytest.mark.parametrize("config", [
    el.BuildingConfig(),
    el.BuildingConfig(num_elevators=1),
    el.BuildingConfig(capacity=2),
    # times and heights with no exact binary form, so a mean summed in any
    # other order than the reference's shows in the last bits
    el.BuildingConfig(num_floors=17, num_elevators=4, floor_travel_time=1.1,
                      door_cycle_time=5.3, floor_height=3.3)],
    ids=["default", "one-car", "capacity-2", "tall"])
def test_traffic_and_simulation_match_reference(config):
    profile = el.office_day_profile()
    passengers = el.generate_traffic(config, profile, seed=21)
    assert passenger_fields(passengers) == \
        passenger_fields(reference_generate_traffic(config, profile, seed=21))
    assert_same_pipeline(config, passengers)
    start = [(3 * k + 2) % config.num_floors for k in range(config.num_elevators)]
    assert_same_pipeline(config, passengers, start_floors=start)
    # the same day in a shuffled order: arrivals are taken in stable
    # arrival-time order, waits come back in input order
    shuffled = [passengers[i] for i in np.random.default_rng(3).permutation(len(passengers))]
    assert_same_pipeline(config, shuffled, start_floors=start)


@pytest.mark.parametrize("config", [el.BuildingConfig(num_elevators=2),
                                    el.BuildingConfig(num_elevators=1, capacity=2)],
                         ids=["two-cars", "one-car-capacity-2"])
def test_simultaneous_arrivals_match_reference(config):
    # many callers share a handful of instants and floors, so the event
    # tie-breaks and shared door-opens decide every wait
    rng = np.random.default_rng(4)
    passengers = []
    for t in rng.choice([0.0, 30.0, 30.0, 95.5, 400.0, 400.0, 400.0], size=60):
        origin, dest = (int(v) for v in rng.choice(4, size=2, replace=False))
        passengers.append(el.Passenger(float(t), origin, dest, 70.0))
    assert_same_pipeline(config, passengers, start_floors=[3] * config.num_elevators)


@pytest.mark.parametrize("shuffle_seed", [0, 1])
def test_windowize_of_shuffled_served_list_matches_reference(shuffle_seed):
    config = el.BuildingConfig(floor_travel_time=1.1, door_cycle_time=5.3, floor_height=3.3)
    passengers = el.generate_traffic(config, el.office_day_profile(), seed=5)
    assert_same_pipeline(config, passengers, shuffle_seed=shuffle_seed)
    # arbitrary waits: their sums depend on the order calls are added in
    rng = np.random.default_rng(shuffle_seed)
    served = [(passengers[i], float(rng.uniform(0.0, 90.0)))
              for i in rng.permutation(len(passengers))]
    assert_same_days([el.windowize(config, served)], [reference_windowize(config, served)])
