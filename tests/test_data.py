"""Dataset I/O, quality pipeline, windowing, and synthesis checks."""

import csv
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from stationcast import data as dt
from stationcast import evaluation as ev
from stationcast import graphs as gr
from stationcast import model as md
from stationcast.errors import (ConfigError, PipelineError, SchemaError,
                                StructuralError)

from helpers import generate_synthetic_reference, save_csv_dir, traced_peak

RNG = np.random.default_rng


def tiny_dataset(n=2, t=48, d=3, seed=0, factors=None):
    rng = RNG(seed)
    factors = factors or ["t", "rh", "hv2"][:d]
    stations = [dt.StationMeta(f"S{i}", 30.0 + i, 100.0 + i) for i in range(n)]
    values = rng.standard_normal((n, t, d)) * 5 + 15
    mask = np.ones_like(values, dtype=bool)
    return dt.WeatherSeriesDataset(stations, factors, values, mask)


def interp_oracle(series, mask):
    # brute force: for each gap, walk left and right to the nearest
    # observations and interpolate between them
    out = series.copy()
    t = len(series)
    obs = np.where(mask)[0]
    for i in range(t):
        if mask[i]:
            continue
        left = obs[obs < i]
        right = obs[obs > i]
        if len(left) == 0:
            out[i] = series[right[0]]
        elif len(right) == 0:
            out[i] = series[left[-1]]
        else:
            lo, hi = left[-1], right[0]
            frac = (i - lo) / (hi - lo)
            out[i] = series[lo] + frac * (series[hi] - series[lo])
    return out


# ---------------------------------------------------------------------------
# containers and I/O


def test_dataset_validation():
    ds = tiny_dataset()
    assert ds.n_stations == 2 and ds.n_steps == 48 and ds.n_factors == 3
    with pytest.raises(SchemaError):
        tiny_dataset(factors=["t", "rh", "bogus"])
    with pytest.raises(SchemaError):
        dt.StationMeta("x", 91.0, 0.0)


def test_non_finite_values_only_at_unobserved_cells():
    ds = tiny_dataset(n=2, t=10, d=2, seed=1, factors=["t", "rh"])
    values = ds.values.copy()
    mask = ds.mask.copy()
    values[1, 4, 0], values[0, 7, 1] = np.nan, np.inf
    mask[1, 4, 0] = mask[0, 7, 1] = False
    replace(ds, values=values, mask=mask)  # unobserved: allowed
    mask[0, 7, 1] = True
    with pytest.raises(StructuralError, match="non-finite values at "
                                              "observed cells"):
        replace(ds, values=values, mask=mask)


def test_select_factors_copies_once_into_c_order():
    ds = tiny_dataset(n=3, t=20, d=3, seed=9)
    ds.mask[0, 2, 2] = False
    out = ds.select_factors(["hv2", "t"])
    assert out.factors == ["hv2", "t"]
    for got, src in ((out.values, ds.values), (out.mask, ds.mask)):
        # a last-axis index list alone leaves another order
        assert not src[:, :, [2, 0]].flags.c_contiguous
        assert got.flags.c_contiguous and got.flags.owndata
        assert np.array_equal(got, src[:, :, [2, 0]].copy())
        assert not np.shares_memory(got, src)
    sel = ds.select_stations([2, 0])
    assert sel.values.flags.c_contiguous and sel.mask.flags.c_contiguous
    assert np.array_equal(sel.values, ds.values[[2, 0]])
    assert not np.shares_memory(sel.values, ds.values)


def test_duplicate_station_ids_rejected():
    ds = tiny_dataset()
    stations = [ds.stations[0], ds.stations[0]]
    with pytest.raises(StructuralError):
        dt.WeatherSeriesDataset(stations, ds.factors, ds.values, ds.mask)


def test_duplicate_factor_names_rejected():
    ds = tiny_dataset(d=2)
    with pytest.raises(StructuralError, match="duplicate factor names"):
        dt.WeatherSeriesDataset(ds.stations, ["t", "t"], ds.values, ds.mask)


def test_csv_roundtrip(tmp_path):
    ds = tiny_dataset(n=2, t=48, d=3, seed=1)
    ds.mask[0, 5, 1] = False  # hole survives the round trip
    save_csv_dir(ds, tmp_path / "csv")
    back = dt.load_dataset(tmp_path / "csv")
    assert back.n_stations == 2 and back.n_steps == 48 and back.n_factors == 3
    assert not back.mask[0, 5, 1]
    assert np.array_equal(back.values[back.mask], ds.values[ds.mask])
    assert [s.station_id for s in back.stations] == ["S0", "S1"]


def test_csv_default_code_masked(tmp_path):
    ds = tiny_dataset(n=1, t=24, d=3, seed=2, factors=["t", "rh", "hv2"])
    ds.values[0, 7, 2] = 999999.0
    save_csv_dir(ds, tmp_path / "csv")
    back = dt.load_dataset(tmp_path / "csv")
    assert not back.mask[0, 7, 2]
    assert back.mask[0, 7, 0]


def test_packed_default_code_masked(tmp_path):
    # the packed format reads default codes as unobserved, as CSV does
    ds = tiny_dataset(n=1, t=24, d=3, seed=2, factors=["t", "rh", "hv2"])
    ds.values[0, 7, 2] = 999999.0
    dt.save_dataset(ds, tmp_path / "ds.w2kt")
    back = dt.load_dataset(tmp_path / "ds.w2kt")
    assert not back.mask[0, 7, 2]
    assert back.mask.sum() == back.mask.size - 1
    assert back.values[0, 7, 2] == 999999.0


def test_packed_reader_rejects_negative_length(tmp_path):
    # a length field decoded from a corrupt header must not move backwards
    path = tmp_path / "x.bin"
    path.write_bytes(b"TEST" + struct.pack("<I", 1) + b"abcdef")
    with dt.PackedReader(path, "test file", b"TEST", 1) as cur:
        cur.take(2)
        with pytest.raises(StructuralError, match="truncated"):
            cur.take(-1)


def test_packed_reader_reads_arrays_in_place(tmp_path):
    # each array is read into its own buffer, an empty one included
    path = tmp_path / "x.bin"
    path.write_bytes(b"TEST" + struct.pack("<I", 1)
                     + np.arange(6.0).astype("<f8").tobytes())
    with dt.PackedReader(path, "test file", b"TEST", 1) as cur:
        assert cur.array("<f8", (0, 3)).shape == (0, 3)
        assert cur.array("<f8", (2, 3)).tolist() == [[0, 1, 2], [3, 4, 5]]
        cur.end()
    assert cur.file.closed


@pytest.mark.parametrize("head,match", [
    (b"TEST" + struct.pack("<I", 1), None),
    (b"TEST", "test file is truncated"),
    (b"BEST" + struct.pack("<I", 1), "not a test file"),
    (b"TEST" + struct.pack("<I", 2), "unsupported test file version 2")])
def test_packed_reader_checks_magic_and_version(tmp_path, head, match):
    path = tmp_path / "x.bin"
    path.write_bytes(head)
    if match is None:
        with dt.PackedReader(path, "test file", b"TEST", 1) as cur:
            assert cur.pos == 8
        return
    with pytest.raises(StructuralError, match=match):
        dt.PackedReader(path, "test file", b"TEST", 1)


def test_csv_ragged_lengths_rejected(tmp_path):
    ds = tiny_dataset(n=2, t=10, d=2, seed=3, factors=["t", "rh"])
    save_csv_dir(ds, tmp_path / "csv")
    f = tmp_path / "csv" / "S1.csv"
    lines = f.read_text().strip().splitlines()
    f.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(StructuralError, match="rows"):
        dt.load_dataset(tmp_path / "csv")


def test_csv_unknown_factor_rejected(tmp_path):
    ds = tiny_dataset(n=1, t=5, d=1, seed=4, factors=["t"])
    save_csv_dir(ds, tmp_path / "csv")
    f = tmp_path / "csv" / "S0.csv"
    f.write_text(f.read_text().replace("t\n", "temperature\n", 1))
    with pytest.raises(SchemaError, match="temperature"):
        dt.load_dataset(tmp_path / "csv")


def _write_raw_csv_dir(root, series: dict, factors, newline="\n"):
    """stations.csv plus one hand-written series file per station."""
    root.mkdir(parents=True)
    meta = ["station_id,lat,lon,alt,time_start"]
    meta += [f"{sid},{30 + i}.5,{100 + i}.25,{10 * i},1577836800"
             for i, sid in enumerate(series)]
    (root / "stations.csv").write_text("\n".join(meta) + "\n")
    for sid, rows in series.items():
        lines = [",".join(factors)] + [",".join(r) for r in rows]
        (root / f"{sid}.csv").write_bytes(
            (newline.join(lines) + newline).encode())


def _csv_module_reference(root, default_codes=dt.DEFAULT_CODES):
    # cell by cell through the csv module: empty and non-finite cells and
    # default codes are unobserved, unobserved cells read 0.0
    with open(root / "stations.csv", newline="") as fh:
        ids = [row["station_id"] for row in csv.DictReader(fh)]
    values, mask, factors = [], [], None
    for sid in ids:
        with open(root / f"{sid}.csv", newline="") as fh:
            reader = csv.reader(fh)
            factors = [h.strip() for h in next(reader)]
            rows = [[float(c) if c.strip() else float("nan") for c in row]
                    for row in reader]
        v = np.array(rows, dtype=np.float64)
        m = np.isfinite(v)
        for d, name in enumerate(factors):
            if name in default_codes:
                m[:, d] &= v[:, d] != default_codes[name]
        values.append(np.where(np.isfinite(v), v, 0.0))
        mask.append(m)
    return factors, np.stack(values), np.stack(mask)


def test_csv_matches_csv_module_reference(tmp_path):
    rng = RNG(21)
    factors = ["t", "hv2", "rh"]
    cells = rng.standard_normal((4, 30, 3)) * [5.0, 2e3, 20.0] + [15.0, 0, 60]
    text = [[[repr(float(x)) for x in row] for row in station]
            for station in cells]
    text[0][0] = [" 12.5 ", "\t-3e2", "7 "]
    text[0][4][1] = ""
    text[0][9][2] = '""'  # how csv writers quote a lone empty cell
    text[1][2] = ["NaN", "nan", ""]
    text[1][9][1] = "999999.0"
    text[2][5][1] = "999999"
    text[2][7][0] = "1_000"
    text[3][0][2] = " "  # a blank cell, read through the per-cell path
    text[3][11] = ["", "", ""]
    series = {f"K{i}": rows for i, rows in enumerate(text)}
    for newline in ("\n", "\r\n"):
        root = tmp_path / f"csv{len(newline)}"
        _write_raw_csv_dir(root, series, factors, newline)
        ds = dt.load_dataset(root)
        want_factors, values, mask = _csv_module_reference(root)
        assert ds.factors == want_factors == factors
        assert ds.values.tobytes() == values.tobytes()
        assert np.array_equal(ds.mask, mask)
        assert (~ds.mask).sum() == 11
        assert ds.values[2, 7, 0] == 1000.0
        assert [(s.station_id, s.lat, s.lon, s.alt) for s in ds.stations] \
            == [(f"K{i}", 30.5 + i, 100.25 + i, 10.0 * i) for i in range(4)]
        assert ds.time_start == 1577836800


def test_csv_lone_cr_ends_a_row(tmp_path):
    rows = [["1.5", "2.5"], ["", "3.0"], ["4.0", '""']]
    loaded = []
    for newline in ("\n", "\r"):
        root = tmp_path / f"csv{ord(newline)}"
        _write_raw_csv_dir(root, {"A": rows}, ["t", "rh"], newline)
        loaded.append(dt.load_dataset(root))
    assert loaded[0].values.tobytes() == loaded[1].values.tobytes()
    assert np.array_equal(loaded[0].mask, loaded[1].mask)
    assert loaded[1].mask.sum() == 4


def test_station_rows_agree_on_time_start(tmp_path):
    # rows may leave time_start blank; rows that give it name one instant
    root = tmp_path / "csv"
    _write_raw_csv_dir(root, {"A": [["1.0"]], "B": [["2.0"]],
                              "C": [["3.0"]]}, ["t"])
    meta = root / "stations.csv"
    rows = meta.read_text().splitlines()
    rows[1] = rows[1].rsplit(",", 1)[0] + ","
    rows[2] = rows[2].rsplit(",", 1)[0] + ",2020-01-01T00:00:00"
    meta.write_text("\n".join(rows) + "\n")
    assert dt.load_dataset(root).time_start == 1577836800
    rows[3] = rows[3].rsplit(",", 1)[0] + ",1600000000"
    meta.write_text("\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match="line 4: time_start 1600000000 "
                       "differs from 1577836800 on line 3"):
        dt.load_dataset(root)


def test_csv_non_finite_cells_unobserved(tmp_path):
    # a cell that parses to inf or nan is a gap, never an observed 0.0
    rows = [["1.5", "2.5"], ["inf", "-inf"], ["1e999", "-nan"],
            ["-1e999", "4.0"]]
    _write_raw_csv_dir(tmp_path / "csv", {"A": rows, "B": rows[::-1]},
                       ["t", "rh"])
    ds = dt.load_dataset(tmp_path / "csv")
    want = np.array([[1, 1], [0, 0], [0, 0], [0, 1]], dtype=bool)
    assert np.array_equal(ds.mask, np.stack([want, want[::-1]]))
    assert (ds.values[~ds.mask] == 0.0).all()
    assert ds.values[0, 3, 1] == 4.0


def test_binary_roundtrip_bit_identical(tmp_path):
    rng = RNG(5)
    ds = tiny_dataset(n=3, t=60, d=2, seed=5, factors=["t", "ws"])
    ds.mask[rng.random(ds.mask.shape) < 0.1] = False
    p = tmp_path / "ds.w2kt"
    dt.save_dataset(ds, p)
    raw = p.read_bytes()
    # older writers set the flag after the station table and followed it
    # with per-factor means and stds; the loader skips that block
    flag = 4 + 4 + 12 + 12 + sum(2 + len(f) for f in ds.factors) \
        + sum(2 + len(s.station_id) + 24 for s in ds.stations)
    assert raw[flag] == 0
    old = tmp_path / "old.w2kt"
    old.write_bytes(raw[:flag] + b"\x01"
                    + np.array([1.0, 2.0, 3.0, 4.0], dtype="<f8").tobytes()
                    + raw[flag + 1:])
    for path in (p, old):
        back = dt.load_dataset(path)
        assert back.values.tobytes() == ds.values.tobytes()
        assert np.array_equal(back.mask, ds.mask)
        assert back.factors == ds.factors
        assert [s.station_id for s in back.stations] == \
               [s.station_id for s in ds.stations]
        p2 = tmp_path / "ds2.w2kt"
        dt.save_dataset(back, p2)
        assert p2.read_bytes() == raw


def test_binary_bad_magic_and_version(tmp_path):
    ds = tiny_dataset(n=1, t=5, d=1, factors=["t"])
    p = tmp_path / "ds.w2kt"
    dt.save_dataset(ds, p)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    bad = tmp_path / "bad.w2kt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(StructuralError, match="not a packed"):
        dt.load_dataset(bad)
    raw = bytearray(p.read_bytes())
    raw[4] = 99
    bad.write_bytes(bytes(raw))
    with pytest.raises(StructuralError, match="version"):
        dt.load_dataset(bad)
    bad.write_bytes(p.read_bytes() + b"\0")
    with pytest.raises(StructuralError, match="trailing"):
        dt.load_dataset(bad)


def test_packed_writers_match_joined_layout(tmp_path):
    # each packed writer's file against the same file built the way the
    # writers once built it: every field's bytes joined, arrays by tobytes()
    def raw(a):
        return np.ascontiguousarray(a, dtype="<f8").tobytes()

    def s(text):
        b = text.encode("utf-8")
        return struct.pack("<H", len(b)) + b

    out = []
    ds = tiny_dataset(n=3, t=30, d=2, seed=2, factors=["t", "rh"])
    ds.mask[1, 3, 0] = False
    # Fortran order: the writer must lay the array out in C order itself
    ds = replace(ds, values=np.asfortranarray(ds.values))
    dt.save_dataset(ds, tmp_path / "ds.w2kt")
    parts = [b"W2KT", struct.pack("<I", 1), struct.pack("<III", 3, 30, 2),
             struct.pack("<qI", ds.time_start, ds.time_step)]
    parts += [s(f) for f in ds.factors]
    for st in ds.stations:
        parts += [s(st.station_id), struct.pack("<ddd", st.lat, st.lon,
                                                st.alt)]
    parts += [struct.pack("<B", 0), raw(ds.values),
              np.packbits(ds.mask.reshape(-1)).tobytes()]
    out.append((tmp_path / "ds.w2kt", b"".join(parts)))

    gs = gr.build_static_graphs(ds, n_adjacent=1, pattern_factors=["t"])
    gr.save_graphs(gs, tmp_path / "g.bin")
    meta = json.dumps(gs.meta, sort_keys=True).encode("utf-8")
    parts = [b"W2KG", struct.pack("<II", 1, gs.n), struct.pack("<I",
             len(meta)), meta, struct.pack("<I", len(gs.graphs))]
    for k in sorted(gs.graphs):
        parts += [s(k), s(gs.graphs[k].kind), raw(gs.graphs[k].weights)]
    out.append((tmp_path / "g.bin", b"".join(parts)))

    model = md.build_model(3, md.ModelConfig(), seed=4)
    md.save_checkpoint(model, tmp_path / "m.ckpt", extra={"factor": "t"})
    names = sorted(model.params)
    header = {"model_config": model.config.to_dict(), "n": 3, "seed": 4,
              "params": [{"name": k, "shape": list(model.params[k].shape)}
                         for k in names], "extra": {"factor": "t"}}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [b"W2KC", struct.pack("<II", 1, len(blob)), blob]
    parts += [raw(model.params[k]) for k in names]
    out.append((tmp_path / "m.ckpt", b"".join(parts)))

    preds = RNG(3).standard_normal((4, 3, 5, 2))[::-1]  # negative strides
    starts = np.arange(4) * 3600
    ids = [st.station_id for st in ds.stations]
    ev.save_predictions(tmp_path / "p.pred", preds, starts, ids, ds.factors,
                        space="physical")
    parts = [b"W2KP", struct.pack("<IIIII", 1, 4, 3, 5, 2),
             struct.pack("<B", 1)]
    parts += [struct.pack("<q", int(t)) for t in starts]
    parts += [s(x) for x in ids + ds.factors] + [raw(preds)]
    out.append((tmp_path / "p.pred", b"".join(parts)))
    for path, want in out:
        assert path.read_bytes() == want, path.name


@pytest.fixture(scope="module")
def net300():
    # the [300, 1000, 3] dataset the memory limits are stated for
    return dt.generate_synthetic(dt.SynthConfig(n=300, t=1000, d=3, seed=0))


def test_save_dataset_streams_its_arrays(net300, tmp_path):
    v = net300.values.nbytes
    peak = traced_peak(lambda: dt.save_dataset(net300, tmp_path / "a.w2kt"))
    assert peak < 0.1 * v, peak / v  # 0.04 V: the packed mask bits


def test_load_packed_dataset_copies_the_values_once(net300, tmp_path):
    path = tmp_path / "a.w2kt"
    dt.save_dataset(net300, path)
    v = net300.values.nbytes
    # the values, read straight into their array, and the mask: 1.28 V.
    # Reading the whole file and copying each array out of it took 2.28 V
    peak = traced_peak(lambda: dt.load_dataset(path))
    assert peak < 1.35 * v, peak / v


# ---------------------------------------------------------------------------
# screening


def test_screen_missing_thresholds():
    ds = tiny_dataset(n=3, t=100, d=2, seed=6, factors=["t", "rh"])
    ds.mask[0, :2, 0] = False   # 2% of records incomplete
    ds.mask[1, 10, 1] = False   # exactly 1%: retained
    out, report = dt.screen_missing(ds, max_ratio=0.01)
    assert report["dropped"] == ["S0"]
    assert [s.station_id for s in out.stations] == ["S1", "S2"]
    assert report["ratios"]["S0"] == pytest.approx(0.02)
    assert report["ratios"]["S1"] == pytest.approx(0.01)


def test_screen_missing_reports_in_station_order():
    ds = tiny_dataset(n=7, t=50, d=1, seed=7, factors=["t"])
    for i in (5, 1, 3):
        ds.mask[i, :i + 1, 0] = False   # (i + 1) / 50 > 2%
    ds.mask[6, 0, 0] = False            # exactly 2%: retained
    out, report = dt.screen_missing(ds, max_ratio=0.02)
    assert report["dropped"] == ["S1", "S3", "S5"]
    assert [s.station_id for s in out.stations] == ["S0", "S2", "S4", "S6"]
    assert list(report["ratios"]) == [f"S{i}" for i in range(7)]
    assert np.array_equal(out.values, ds.values[[0, 2, 4, 6]])
    assert np.array_equal(out.mask, ds.mask[[0, 2, 4, 6]])


def test_screen_missing_all_dropped():
    ds = tiny_dataset(n=2, t=10, d=1, seed=7, factors=["t"])
    ds.mask[:, :5] = False
    with pytest.raises(PipelineError):
        dt.screen_missing(ds, max_ratio=0.01)


def test_screening_refuses_to_drop_every_station():
    ds = tiny_dataset(n=2, t=10, d=2, seed=7, factors=["t", "hv2"])
    ds.values[:, :5, 1] = 999999.0  # every station breaches the codes
    with pytest.raises(PipelineError) as err:
        dt.screen_defaults(ds, max_ratio=0.01)
    assert str(err.value) == "default-code screening dropped every station"
    ds.mask[:, :5, 0] = False  # and every station lacks records
    with pytest.raises(PipelineError) as err:
        dt.screen_missing(ds, max_ratio=0.01)
    assert str(err.value) == "missing-data screening dropped every station"


def test_screen_defaults_drop_and_mask():
    ds = tiny_dataset(n=3, t=100, d=2, seed=8, factors=["t", "hv2"])
    ds.values[0, :3, 1] = 999999.0   # 3% defaults: dropped
    ds.values[1, 50, 1] = 999999.0   # 1%: retained, cell masked
    out, report = dt.screen_defaults(ds)
    assert report["dropped"] == ["S0"]
    assert [s.station_id for s in out.stations] == ["S1", "S2"]
    assert not out.mask[0, 50, out.factor_index("hv2")]
    assert report["ratios"]["S0"]["hv2"] == pytest.approx(0.03)


def test_screen_defaults_any_factor_rule():
    ds = tiny_dataset(n=2, t=100, d=3, seed=9, factors=["t", "vv", "hv1"])
    ds.values[1, :5, 2] = 999999.0  # only the third factor breaches
    out, report = dt.screen_defaults(ds)
    assert report["dropped"] == ["S1"]


@pytest.mark.parametrize("bad,text", [
    (float("nan"), "max_ratio nan is not a finite number"),
    (float("inf"), "max_ratio inf is not a finite number"),
    ("0.1", "max_ratio '0.1' is not a finite number"),
    (True, "max_ratio True is not a finite number"),
    (-0.5, r"max_ratio -0.5 lies outside \[0, 1\]"),
    (1.5, r"max_ratio 1.5 lies outside \[0, 1\]"),
], ids=["nan", "inf", "string", "bool", "negative", "above-1"])
def test_screening_rejects_bad_thresholds(bad, text):
    ds = tiny_dataset(n=2, t=10, d=1, seed=7, factors=["t"])
    with pytest.raises(ConfigError, match=f"^missing-data {text}"):
        dt.screen_missing(ds, max_ratio=bad)
    with pytest.raises(ConfigError, match=f"^default-code {text}"):
        dt.screen_defaults(ds, max_ratio=bad)
    # both ends of the range are valid shares
    for ok in (0, 1.0):
        dt.screen_missing(ds, max_ratio=ok)
        dt.screen_defaults(ds, max_ratio=ok)


def test_screening_pipeline_idempotent():
    rng = RNG(11)
    ds = tiny_dataset(n=5, t=200, d=2, seed=11, factors=["t", "hv2"])
    ds.values[rng.random(ds.values.shape) < 0.003] = 999999.0
    ds.mask[rng.random(ds.mask.shape) < 0.003] = False

    def pipeline(d):
        d, _ = dt.screen_missing(d)
        d, _ = dt.screen_defaults(d)
        return dt.interpolate_linear(d)

    once = pipeline(ds)
    twice = pipeline(once)
    assert np.array_equal(once.values, twice.values)
    assert np.array_equal(once.mask, twice.mask)
    assert once.mask.all()


# ---------------------------------------------------------------------------
# interpolation


def test_interpolate_simple_gap():
    ds = tiny_dataset(n=1, t=3, d=1, factors=["t"])
    ds.values[0, :, 0] = [1.0, -7.0, 3.0]
    ds.mask[0, 1, 0] = False
    out = dt.interpolate_linear(ds)
    assert np.array_equal(out.values[0, :, 0], [1.0, 2.0, 3.0])
    assert out.mask.all()


def test_interpolate_edge_gaps():
    ds = tiny_dataset(n=1, t=3, d=1, factors=["t"])
    ds.values[0, :, 0] = [99.0, 5.0, 7.0]
    ds.mask[0, 0, 0] = False
    out = dt.interpolate_linear(ds)
    assert np.array_equal(out.values[0, :, 0], [5.0, 5.0, 7.0])


def test_interpolate_matches_oracle():
    rng = RNG(12)
    ds = tiny_dataset(n=4, t=300, d=2, seed=12, factors=["t", "rh"])
    ds.mask[rng.random(ds.mask.shape) < 0.1] = False
    out = dt.interpolate_linear(ds)
    for i in range(4):
        for d in range(2):
            want = interp_oracle(ds.values[i, :, d], ds.mask[i, :, d])
            assert np.abs(out.values[i, :, d] - want).max() < 1e-12


def test_interpolate_preserves_observed_exactly():
    rng = RNG(13)
    ds = tiny_dataset(n=2, t=100, d=1, seed=13, factors=["t"])
    ds.mask[rng.random(ds.mask.shape) < 0.2] = False
    out = dt.interpolate_linear(ds)
    assert np.array_equal(out.values[ds.mask], ds.values[ds.mask])


def test_interpolate_unfillable():
    ds = tiny_dataset(n=1, t=10, d=1, factors=["t"])
    ds.mask[0, :, 0] = False
    with pytest.raises(PipelineError, match="S0"):
        dt.interpolate_linear(ds)


# ---------------------------------------------------------------------------
# normalization and splits


def test_normalize_roundtrip():
    ds = tiny_dataset(n=3, t=50, d=2, seed=15, factors=["t", "ws"])
    normed, stats = dt.normalize(ds, dt.compute_norm_stats(ds))
    flat = normed.values.reshape(-1, 2)
    assert np.abs(flat.mean(axis=0)).max() < 1e-12
    back = normed.values * stats.std + stats.mean
    assert np.abs(back - ds.values).max() < 1e-12


def test_normalize_train_stats_only():
    # drifting series: later splits are offset, so their mean is nonzero
    ds = tiny_dataset(n=2, t=300, d=1, seed=16, factors=["t"])
    ds.values += np.linspace(0, 30, 300)[None, :, None]
    train, val, test = dt.split_temporal(ds, (3, 1, 2))
    stats = dt.compute_norm_stats(train)
    val_n, _ = dt.normalize(val, stats)
    assert abs(val_n.values.mean()) > 0.5


def test_normalize_zero_variance_errors():
    ds = tiny_dataset(n=2, t=30, d=2, seed=17, factors=["t", "p1"])
    ds.values[:, :, 1] = 0.0
    with pytest.raises(PipelineError, match="p1"):
        dt.compute_norm_stats(ds)


def test_split_ratio_3_1_2():
    ds = tiny_dataset(n=1, t=600, d=1, seed=18, factors=["t"])
    train, val, test = dt.split_temporal(ds, (3, 1, 2))
    assert (train.n_steps, val.n_steps, test.n_steps) == (300, 100, 200)
    assert val.time_start == ds.time_start + 300 * 3600
    assert np.array_equal(np.concatenate(
        [train.values, val.values, test.values], axis=1), ds.values)


# ---------------------------------------------------------------------------
# windows


def test_window_count_formula():
    ds = tiny_dataset(n=2, t=30, d=1, seed=20, factors=["t"])
    batches = list(dt.make_windows(ds, 12, 12))
    assert len(batches) == 1
    assert batches[0].inputs.shape == (7, 2, 12, 1)
    assert batches[0].targets.shape == (7, 2, 12, 1)


def test_windows_too_short_yields_nothing():
    ds = tiny_dataset(n=1, t=20, d=1, seed=21, factors=["t"])
    assert list(dt.make_windows(ds, 12, 12)) == []


def origin_steps(batch, split, w_in):
    """Index in the split of each window's first input step."""
    return (batch.starts - split.time_start) // split.time_step - w_in


def test_window_contents_align():
    ds = tiny_dataset(n=2, t=40, d=2, seed=23, factors=["t", "rh"])
    (batch,) = dt.make_windows(ds, 5, 3)
    o = origin_steps(batch, ds, 5)[4]
    # a window is labelled by its first target step
    assert batch.starts[4] == ds.time_start + 9 * ds.time_step and o == 4
    assert np.array_equal(batch.inputs[4], ds.values[:, o:o + 5, :])
    assert np.array_equal(batch.targets[4], ds.values[:, o + 5:o + 8, :])
    assert batch.inputs.flags.c_contiguous
    assert batch.targets.flags.c_contiguous


def test_window_view_matches_make_windows():
    ds = tiny_dataset(n=3, t=30, d=2, seed=26, factors=["t", "rh"])
    view, starts = dt.window_view(ds, 6, 4)
    assert view.shape == (21, 3, 10, 2) and not view.flags.writeable
    (batch,) = dt.make_windows(ds, 6, 4)
    assert np.array_equal(batch.starts, starts)
    assert batch.inputs.tobytes() == np.stack(
        [ds.values[:, o:o + 6] for o in range(21)]).tobytes()
    assert np.array_equal(batch.targets, view[:, :, 6:])


def test_window_view_of_a_short_split_is_empty():
    ds = tiny_dataset(n=2, t=9, d=1, seed=27, factors=["t"])
    view, starts = dt.window_view(ds, 6, 4)
    assert view.shape == (0, 2, 10, 1) and starts.shape == (0,)
    assert list(dt.make_windows(ds, 6, 4, batch_size=3)) == []


def test_window_batching_and_shuffle_determinism():
    ds = tiny_dataset(n=1, t=60, d=1, seed=24, factors=["t"])
    sizes = [b.inputs.shape[0] for b in dt.make_windows(ds, 6, 2, batch_size=16)]
    assert sizes == [16, 16, 16, 5]
    seen1 = np.concatenate([origin_steps(b, ds, 6) for b in
                            dt.make_windows(ds, 6, 2, batch_size=16,
                                            shuffle_rng=RNG(7))])
    seen2 = np.concatenate([origin_steps(b, ds, 6) for b in
                            dt.make_windows(ds, 6, 2, batch_size=16,
                                            shuffle_rng=RNG(7))])
    assert np.array_equal(seen1, seen2)
    assert sorted(seen1) == list(range(53))
    assert not np.array_equal(seen1, np.arange(53))


def test_windows_never_cross_split_boundary():
    ds = tiny_dataset(n=1, t=60, d=1, seed=25, factors=["t"])
    train, val, test = dt.split_temporal(ds, (3, 1, 2))
    for split, lo, hi in [(train, 0, 30), (val, 30, 40), (test, 40, 60)]:
        for batch in dt.make_windows(split, 4, 2):
            for o in origin_steps(batch, split, 4):
                assert lo + o + 6 <= hi


# ---------------------------------------------------------------------------
# synthesis


def test_synthetic_deterministic():
    cfg = dt.SynthConfig(n=6, t=100, d=2, seed=42)
    a = dt.generate_synthetic(cfg)
    b = dt.generate_synthetic(cfg)
    assert a.values.tobytes() == b.values.tobytes()
    assert [s.station_id for s in a.stations] == \
           [s.station_id for s in b.stations]
    assert a.stations[0].lat == b.stations[0].lat


@pytest.mark.parametrize("cfg", [
    dict(n=1, t=1, d=1), dict(n=5, t=200, d=3, seed=1),
    dict(n=7, t=50, d=20, seed=9), dict(n=4, t=400, d=11, seed=6),
    dict(n=12, t=300, d=2, seed=3, diurnal_amp=0.0, ar_coeff=0.0),
    dict(n=3, t=96, d=1, seed=4, ar_amp=0.0, noise_amp=0.0)],
    ids=["one-cell", "default-factors", "twenty-factors", "eleven-factors",
         "no-diurnal-white-ar", "noiseless"])
def test_synthetic_matches_whole_array_reference(cfg):
    cfg = dt.SynthConfig(**cfg)
    assert dt.generate_synthetic(cfg).values.tobytes() == \
        generate_synthetic_reference(cfg).tobytes()


def test_synthetic_holds_two_planes_of_scratch():
    # the 7.2 MB of values, two 2.4 MB [N, T] planes of scratch, and the
    # [N, N] distances, covariance and Cholesky factor: 14.2 MB, where
    # whole-array temporaries peaked at 26 MB
    cfg = dt.SynthConfig(n=300, t=1000, d=3, seed=0)
    plane = 8 * cfg.n * cfg.t
    assert traced_peak(lambda: dt.generate_synthetic(cfg)) < \
        (cfg.d + 2) * plane + 3 * 8 * cfg.n ** 2 + (1 << 19)


def test_synthetic_shapes_and_factors():
    ds = dt.generate_synthetic(dt.SynthConfig(n=5, t=200, d=3, seed=1))
    assert ds.values.shape == (5, 200, 3)
    assert ds.factors == ["t", "hv2", "rh"]
    assert ds.mask.all()


def test_synthetic_spatial_correlation_decays():
    from stationcast.graphs import pairwise_distances_km
    ds = dt.generate_synthetic(dt.SynthConfig(
        n=12, t=1500, d=1, seed=3, diurnal_amp=0.0, seasonal_amp=0.0,
        noise_amp=0.2, ar_amp=3.0))
    lats = np.array([s.lat for s in ds.stations])
    lons = np.array([s.lon for s in ds.stations])
    dist = pairwise_distances_km(lats, lons)
    off = dist + np.eye(12) * 1e12
    near = np.unravel_index(np.argmin(off), off.shape)
    far = np.unravel_index(np.argmax(dist), dist.shape)

    def corr(i, j):
        a, b = ds.values[i, :, 0], ds.values[j, :, 0]
        return np.corrcoef(a, b)[0, 1]

    assert corr(*near) > corr(*far)


def test_synthetic_noiseless_is_periodic():
    ds = dt.generate_synthetic(dt.SynthConfig(
        n=3, t=96, d=1, seed=4, seasonal_amp=0.0, ar_amp=0.0, noise_amp=0.0))
    x = ds.values[:, :, 0]
    assert np.array_equal(x[:, 24:], x[:, :-24])


def test_synthetic_config_validation():
    with pytest.raises(ConfigError):
        dt.SynthConfig(n=0, t=10)
    with pytest.raises(ConfigError):
        dt.SynthConfig(n=2, t=10, ar_coeff=1.0)
    for name in ("diurnal_amp", "seasonal_amp", "ar_amp", "noise_amp"):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=name):
                dt.SynthConfig(n=2, t=10, **{name: bad})
    # the type is checked before the range, which a string cannot meet
    for name in ("ar_coeff", "noise_amp"):
        with pytest.raises(ConfigError, match=f"{name} '1' is not"):
            dt.SynthConfig(n=2, t=10, **{name: "1"})
