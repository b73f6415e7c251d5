"""Station time-series containers, quality pipeline, windowing, synthesis.

A dataset is a dense [N, T, D] float64 block plus a boolean observation
mask, station coordinates, and factor names.  The pipeline operations are
pure: each returns a new dataset and leaves its input untouched.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (ConfigError, PipelineError, SchemaError, StructuralError,
                     check_ints, check_reals)

# canonical factor short names; order fixes nothing, membership is the schema
FACTOR_NAMES = (
    "ap", "wvp", "t", "mxt", "mnt", "dt", "st", "rh", "ws", "mws",
    "wd", "mwd", "vv", "hv1", "hv2", "p1", "p2", "p3", "p4", "p5",
)

# sentinel codes stations report instead of a measurement
DEFAULT_CODES = {"vv": 999999.0, "hv1": 999999.0, "hv2": 999999.0}

_MAGIC = b"W2KT"
_VERSION = 1


@dataclass(frozen=True)
class StationMeta:
    """Identity and fixed coordinates of one ground station."""

    station_id: str
    lat: float
    lon: float
    alt: float = 0.0

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise SchemaError(f"station {self.station_id}: lat {self.lat} out of range")
        if not -180.0 <= self.lon <= 180.0:
            raise SchemaError(f"station {self.station_id}: lon {self.lon} out of range")


@dataclass
class NormStats:
    """Per-factor standardization constants, taken from a training split."""

    factors: list
    mean: np.ndarray
    std: np.ndarray


@dataclass
class WeatherSeriesDataset:
    """N stations by T hourly steps by D factors, with observation mask."""

    stations: list
    factors: list
    values: np.ndarray
    mask: np.ndarray
    time_start: int = 0
    time_step: int = 3600

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        n, t, d = self.values.shape
        if t <= 0:
            raise StructuralError("dataset has no time steps")
        if len(self.stations) != n or len(self.factors) != d:
            raise StructuralError(
                f"metadata lengths ({len(self.stations)} stations, "
                f"{len(self.factors)} factors) do not match values shape {self.values.shape}")
        if self.mask.shape != self.values.shape:
            raise StructuralError("mask shape differs from values shape")
        ids = [s.station_id for s in self.stations]
        if len(set(ids)) != len(ids):
            raise StructuralError("duplicate station ids")
        if len(set(self.factors)) != len(self.factors):
            raise StructuralError(f"duplicate factor names in {self.factors}")
        for name in self.factors:
            if name not in FACTOR_NAMES:
                raise SchemaError(f"unknown factor name: {name!r}")
        if not np.isfinite(self.values[self.mask]).all():
            raise StructuralError("non-finite values at observed cells")

    @property
    def n_stations(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    @property
    def n_factors(self) -> int:
        return self.values.shape[2]

    def factor_index(self, name: str) -> int:
        try:
            return self.factors.index(name)
        except ValueError:
            raise SchemaError(f"factor {name!r} not in dataset "
                              f"(has {self.factors})") from None

    def select_stations(self, keep: Sequence[int]) -> "WeatherSeriesDataset":
        keep = list(keep)
        return replace(self,
                       stations=[self.stations[i] for i in keep],
                       values=self.values[keep].copy(),
                       mask=self.mask[keep].copy())

    def slice_time(self, start: int, stop: int) -> "WeatherSeriesDataset":
        return replace(self,
                       values=self.values[:, start:stop].copy(),
                       mask=self.mask[:, start:stop].copy(),
                       time_start=self.time_start + start * self.time_step)

    def select_factors(self, keep: Sequence[str]) -> "WeatherSeriesDataset":
        idx = [self.factor_index(name) for name in keep]
        return replace(self,
                       factors=list(keep),
                       values=self.values[:, :, idx].copy(),
                       mask=self.mask[:, :, idx].copy())


@dataclass
class WindowBatch:
    """One batch of forecasting windows cut from a single split."""

    inputs: np.ndarray   # [B, N, W_in, D]
    targets: np.ndarray  # [B, N, W_out, D]
    origins: np.ndarray  # epoch seconds of each window's first input step


# ---------------------------------------------------------------------------
# loading and saving


def load_dataset(path) -> WeatherSeriesDataset:
    """Read a dataset: a directory is the per-station CSV layout, a file is
    the packed binary layout.

    Cells holding a factor's code in ``DEFAULT_CODES`` are marked
    unobserved in either layout.
    """
    path = Path(path)
    ds = _load_csv_dir(path) if path.is_dir() else _load_binary(path)
    for d, name in enumerate(ds.factors):
        if name in DEFAULT_CODES:
            ds.mask[:, :, d] &= ds.values[:, :, d] != DEFAULT_CODES[name]
    return ds


def _parse_time(text: str) -> int:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp())


def _load_station_table(path: Path):
    """Station metadata rows of ``stations.csv`` and the series start time.

    Every row that gives ``time_start`` must give the same instant; rows
    that leave it blank are allowed.
    """
    metas: list[StationMeta] = []
    time_start, start_line = 0, None
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: byte {e.start} is not UTF-8") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    missing = [k for k in ("station_id", "lat", "lon")
               if k not in (reader.fieldnames or ())]
    if reader.fieldnames is not None and missing:
        raise SchemaError(f"{path}: no {', '.join(missing)} column")
    for row in reader:
        where = f"{path}, line {reader.line_num}"
        try:
            sid = row["station_id"].strip()
            lat, lon = float(row["lat"]), float(row["lon"])
            alt = float(row.get("alt") or 0.0)
            if row.get("time_start"):
                t = _parse_time(row["time_start"])
                if start_line is None:
                    time_start, start_line = t, reader.line_num
                elif t != time_start:
                    raise SchemaError(f"{where}: time_start {t} differs from "
                                      f"{time_start} on line {start_line}")
        except (AttributeError, TypeError):  # a short row reads None
            raise SchemaError(f"{where}: fewer fields than the header") \
                from None
        except ValueError as e:
            raise SchemaError(f"{where}: {e}") from None
        metas.append(StationMeta(sid, lat, lon, alt))
    if not metas:
        raise StructuralError("station metadata file lists no stations")
    return metas, time_start


def _cell_value(cell: bytes, f: Path, line: int) -> float:
    cell = cell.strip()
    if not cell:
        return math.nan
    try:
        return float(cell)
    except ValueError:
        raise SchemaError(f"{f}, line {line}: cell "
                          f"{cell.decode('utf-8', 'replace')!r} is not a "
                          "number") from None


def _load_series_file(f: Path):
    """Factor names and the [T, D] cells of one station's series file.

    The file is read as one buffer: rows end in LF or CRLF, and cells are
    split on every comma (no quoting).  Empty cells, and ``""``, read as
    nan; every other cell is parsed by ``float``, which allows surrounding
    whitespace.
    """
    rows = f.read_bytes().replace(b"\r\n", b"\n").split(b"\n")
    if rows[-1] == b"":
        rows.pop()
    if not rows:
        raise StructuralError(f"{f}: empty file")
    header = [h.strip() for h in rows.pop(0).decode("utf-8", "replace")
              .split(",")]
    for name in header:
        if name not in FACTOR_NAMES:
            raise SchemaError(f"{f}: unknown factor name {name!r}")
    d = len(header)
    widths = [row.count(b",") + 1 if row else 0 for row in rows]
    if widths.count(d) != len(rows):
        at = next(i for i, w in enumerate(widths) if w != d)
        raise StructuralError(f"{f}, line {at + 2}: row width {widths[at]} "
                              f"!= {d} factors")
    if not rows:
        return header, np.empty((0, d))
    # one cell list for the whole file.  csv writers quote the lone empty
    # cell of a one-column row as "", and two passes fill every run of
    # empty cells with nan, since the first leaves no three commas in a row
    text = b",".join(rows).replace(b'""', b"")
    text = (b"," + text + b",").replace(b",,", b",nan,")
    cells = text.replace(b",,", b",nan,")[1:-1].split(b",")
    try:
        values = np.array(list(map(float, cells)))
    except ValueError:  # blank cells, or a cell that is not a number
        values = np.array([_cell_value(c, f, i // d + 2)
                           for i, c in enumerate(cells)])
    return header, values.reshape(len(rows), d)


def _load_csv_dir(root: Path) -> WeatherSeriesDataset:
    """Read ``stations.csv`` plus one series file per station.

    A cell that is empty or does not parse to a finite number (``nan``,
    ``inf``, ``1e999``) is unobserved and reads as 0.0.
    """
    meta_path = root / "stations.csv"
    if not meta_path.exists():
        raise StructuralError(f"missing station metadata file {meta_path}")
    metas, time_start = _load_station_table(meta_path)
    factors, blocks = None, []
    for meta in metas:
        f = root / f"{meta.station_id}.csv"
        if not f.exists():
            raise StructuralError(f"missing series file {f}")
        header, block = _load_series_file(f)
        if factors is None:
            factors = header
        elif header != factors:
            raise SchemaError(f"{f}: factor columns {header} differ from "
                              f"{factors}")
        if blocks and len(block) != len(blocks[0]):
            raise StructuralError(
                f"{f}: {len(block)} rows, other stations have "
                f"{len(blocks[0])}")
        blocks.append(block)
    values = np.stack(blocks)
    mask = np.isfinite(values)
    values[~mask] = 0.0
    return WeatherSeriesDataset(metas, factors, values, mask,
                                time_start=time_start)


def _pack_str(s: str) -> bytes:
    b = s.encode("utf-8")
    return struct.pack("<H", len(b)) + b


class PackedReader:
    """Bounds-checked reader over one packed binary file.

    Every packed format opens with a 4-byte magic and a u32 version; the
    constructor reads the file, checks both and leaves the cursor after
    the version.  A wrong magic or version, reads past the end,
    undecodable strings and bytes left after the last field raise the
    format's error class (StructuralError unless given) with a one-line
    diagnostic that names the file and the format's noun, never a struct
    or index error.
    """

    def __init__(self, path, noun: str, magic: bytes, version: int,
                 error=StructuralError):
        self.buf = Path(path).read_bytes()
        self.pos = 0
        self.what = f"{path}: {noun}"
        self.error = error
        if self.take(len(magic)) != magic:
            raise error(f"{path}: not a {noun}")
        (found,) = self.unpack("I")
        if found != version:
            raise error(f"{path}: unsupported {noun} version {found}")

    def corrupt(self) -> Exception:
        return self.error(f"{self.what} is truncated or corrupt")

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.buf):
            raise self.corrupt()
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise self.corrupt() from None

    def string(self) -> str:
        (n,) = self.unpack("H")
        return self.text(n)

    def array(self, dtype: str, shape) -> np.ndarray:
        """A little-endian array of this dtype and shape, copied out."""
        dtype = np.dtype(dtype)
        raw = self.take(dtype.itemsize * math.prod(shape))
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def end(self) -> None:
        """Reject bytes left over after the last field."""
        if self.pos != len(self.buf):
            raise self.error(f"{self.what} has {len(self.buf) - self.pos} "
                             "trailing bytes")


def save_dataset(ds: WeatherSeriesDataset, path) -> None:
    """Write the packed little-endian binary layout.

    The byte after the station table is a flag that older writers set when
    a block of 2*D normalization doubles followed it; it is always 0 here.
    """
    parts = [_MAGIC, struct.pack("<I", _VERSION)]
    n, t, d = ds.values.shape
    parts.append(struct.pack("<III", n, t, d))
    parts.append(struct.pack("<qI", ds.time_start, ds.time_step))
    for name in ds.factors:
        parts.append(_pack_str(name))
    for s in ds.stations:
        parts.append(_pack_str(s.station_id))
        parts.append(struct.pack("<ddd", s.lat, s.lon, s.alt))
    parts.append(struct.pack("<B", 0))
    parts.append(np.ascontiguousarray(ds.values, dtype="<f8").tobytes())
    parts.append(np.packbits(ds.mask.reshape(-1)).tobytes())
    Path(path).write_bytes(b"".join(parts))


def _load_binary(path: Path) -> WeatherSeriesDataset:
    cur = PackedReader(path, "packed dataset file", _MAGIC, _VERSION)
    n, t, d = cur.unpack("III")
    time_start, time_step = cur.unpack("qI")
    factors = [cur.string() for _ in range(d)]
    stations = []
    for _ in range(n):
        sid = cur.string()
        lat, lon, alt = cur.unpack("ddd")
        stations.append(StationMeta(sid, lat, lon, alt))
    (has_norm,) = cur.unpack("B")
    if has_norm:  # an older writer's normalization block, not read
        cur.take(16 * d)
    count = n * t * d
    values = cur.array("<f8", (n, t, d))
    mask = np.unpackbits(cur.array("u1", ((count + 7) // 8,)),
                         count=count).astype(bool).reshape(n, t, d)
    cur.end()
    return WeatherSeriesDataset(stations, factors, values, mask,
                                time_start=time_start, time_step=time_step)


# ---------------------------------------------------------------------------
# quality screening


def screen_missing(ds: WeatherSeriesDataset, max_ratio: float = 0.01):
    """Drop stations with too many incomplete records.

    A record (one time step of one station) counts as missing when any
    factor cell is unobserved; the station is dropped when the missing
    fraction strictly exceeds ``max_ratio``.
    """
    record_missing = ~ds.mask.all(axis=2)  # [N, T]
    ratios = record_missing.mean(axis=1)
    keep = [i for i in range(ds.n_stations) if ratios[i] <= max_ratio]
    dropped = [ds.stations[i].station_id for i in range(ds.n_stations)
               if i not in keep]
    if not keep:
        raise PipelineError("missing-data screening dropped every station")
    report = {
        "rule": "whole-record: a step is missing if any factor cell is unobserved",
        "max_ratio": max_ratio,
        "ratios": {ds.stations[i].station_id: float(ratios[i])
                   for i in range(ds.n_stations)},
        "dropped": dropped,
    }
    return ds.select_stations(keep), report


def screen_defaults(ds: WeatherSeriesDataset, max_ratio: float = 0.01):
    """Drop stations where any factor reports its default code too often.

    The codes are ``DEFAULT_CODES``.  Surviving default-code cells are
    masked as unobserved so interpolation replaces them.
    """
    ratios: dict = {}
    drop = set()
    mask = ds.mask.copy()
    for d, name in enumerate(ds.factors):
        if name not in DEFAULT_CODES:
            continue
        hits = ds.values[:, :, d] == DEFAULT_CODES[name]
        frac = hits.mean(axis=1)
        for i in range(ds.n_stations):
            ratios.setdefault(ds.stations[i].station_id, {})[name] = float(frac[i])
            if frac[i] > max_ratio:
                drop.add(i)
        mask[:, :, d] &= ~hits
    keep = [i for i in range(ds.n_stations) if i not in drop]
    if not keep:
        raise PipelineError("default-code screening dropped every station")
    out = replace(ds, mask=mask).select_stations(keep)
    report = {
        "max_ratio": max_ratio,
        "ratios": ratios,
        "dropped": [ds.stations[i].station_id for i in sorted(drop)],
    }
    return out, report


def interpolate_linear(ds: WeatherSeriesDataset) -> WeatherSeriesDataset:
    """Fill unobserved cells by per-station linear interpolation in time.

    Leading and trailing gaps take the nearest observed value.  Observed
    cells are copied through untouched.
    """
    values = ds.values.copy()
    idx = np.arange(ds.n_steps)
    for i in range(ds.n_stations):
        for d in range(ds.n_factors):
            obs = ds.mask[i, :, d]
            if obs.all():
                continue
            if not obs.any():
                raise PipelineError(
                    f"station {ds.stations[i].station_id}, factor "
                    f"{ds.factors[d]}: no observed values to interpolate from")
            gaps = ~obs
            values[i, gaps, d] = np.interp(idx[gaps], idx[obs],
                                           ds.values[i, obs, d])
    return replace(ds, values=values, mask=np.ones_like(ds.mask))


# ---------------------------------------------------------------------------
# normalization and splitting


def compute_norm_stats(ds: WeatherSeriesDataset) -> NormStats:
    """Per-factor mean and standard deviation over all stations and steps."""
    flat = ds.values.reshape(-1, ds.n_factors)
    mean = flat.mean(axis=0)
    std = flat.std(axis=0)
    for d, s in enumerate(std):
        if s <= 0.0:
            raise PipelineError(f"factor {ds.factors[d]!r} has zero variance, "
                                "cannot standardize")
    return NormStats(list(ds.factors), mean, std)


def normalize(ds: WeatherSeriesDataset, stats: NormStats):
    """Z-score the dataset with stats from the training split."""
    if stats.factors != ds.factors:
        raise ConfigError("normalization stats cover different factors")
    values = (ds.values - stats.mean) / stats.std
    return replace(ds, values=values), stats


def denormalize_values(arr: np.ndarray, stats: NormStats) -> np.ndarray:
    """Undo z-scoring on a raw array whose last axis indexes factors."""
    return arr * stats.std + stats.mean


def split_temporal(ds: WeatherSeriesDataset,
                   scheme: Sequence[float] = (3, 1, 2)):
    """Cut the timeline into contiguous train/val/test segments.

    ``scheme`` is a ratio triple like (3, 1, 2); each part's length is
    rounded down, and the test segment takes the steps left over.
    """
    t = ds.n_steps
    if len(scheme) != 3:
        raise ConfigError("split scheme needs exactly three parts")
    parts = [float(p) for p in scheme]
    total = sum(parts)
    if not (all(p >= 0.0 for p in parts) and total > 0.0
            and math.isfinite(t * total)):
        raise ConfigError(f"split ratio {scheme} needs nonnegative parts "
                          "with a positive sum whose product with the "
                          f"step count {t} is finite")
    n_train = int(t * parts[0] / total)
    n_val = int(t * parts[1] / total)
    ranges = [(0, n_train), (n_train, n_train + n_val), (n_train + n_val, t)]
    return tuple(ds.slice_time(a, b) for a, b in ranges)


def make_windows(split: WeatherSeriesDataset, w_in: int, w_out: int,
                 batch_size: Optional[int] = None,
                 shuffle_rng: Optional[np.random.Generator] = None
                 ) -> Iterator[WindowBatch]:
    """Yield forecasting windows fully contained in one split.

    A window starts at every step, so a split of T steps gives
    max(0, T - w_in - w_out + 1) windows.  Never crosses the split
    boundary because it only ever sees one split.
    """
    if w_in <= 0 or w_out <= 0:
        raise ConfigError("window lengths must be positive")
    t = split.n_steps
    origins = np.arange(0, t - w_in - w_out + 1, dtype=np.int64)
    if shuffle_rng is not None:
        origins = origins[shuffle_rng.permutation(len(origins))]
    if batch_size is None:
        batch_size = max(len(origins), 1)
    for at in range(0, len(origins), batch_size):
        chunk = origins[at:at + batch_size]
        if len(chunk) == 0:
            return
        inputs = np.stack([split.values[:, o:o + w_in, :] for o in chunk])
        targets = np.stack([split.values[:, o + w_in:o + w_in + w_out, :]
                            for o in chunk])
        stamps = split.time_start + chunk * split.time_step
        yield WindowBatch(inputs, targets, stamps)


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class SynthConfig:
    """Knobs for the synthetic station-network generator."""

    n: int = 20
    t: int = 2000
    d: int = 3
    seed: int = 0
    diurnal_amp: float = 5.0
    seasonal_amp: float = 8.0
    ar_coeff: float = 0.9
    ar_amp: float = 2.0
    noise_amp: float = 0.5

    def __post_init__(self):
        check_ints(1, n=self.n, t=self.t, d=self.d)
        check_ints(0, seed=self.seed)
        amps = ("diurnal_amp", "seasonal_amp", "ar_amp", "noise_amp")
        check_reals(finite=False, ar_coeff=self.ar_coeff,
                    **{name: getattr(self, name) for name in amps})
        if self.d > len(FACTOR_NAMES):
            raise ConfigError(f"at most {len(FACTOR_NAMES)} factors")
        if not 0.0 <= self.ar_coeff < 1.0:
            raise ConfigError("ar_coeff must lie in [0, 1)")
        for name in amps:
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{name} {value} is not nonnegative and "
                                  "finite")


# stations fall in a 4-degree square around 35N 110E; the AR field
# decorrelates over 150 km and the seasonal cycle repeats every 720 steps
_SYNTH_LAT, _SYNTH_LON, _SYNTH_PATCH_DEG = 35.0, 110.0, 4.0
_SYNTH_CORR_KM = 150.0
_SYNTH_SEASON = 720

# factors the generator emits, in order; chosen so the default pattern-graph
# factor set is available whenever d >= 3
_SYNTH_FACTORS = ("t", "hv2", "rh", "ap", "ws", "wvp", "dt", "st", "mxt",
                  "mnt", "vv", "hv1", "mws", "wd", "mwd", "p1", "p2", "p3",
                  "p4", "p5")


def generate_synthetic(cfg: SynthConfig) -> WeatherSeriesDataset:
    """Deterministic multi-station series with spatial structure.

    Each factor is a smooth station baseline plus diurnal and seasonal
    cycles plus a spatially correlated AR(1) field plus white noise.  The
    AR field is shared smoothly across nearby stations, so neighbors carry
    information about a station's future that its own history lacks.
    """
    from .graphs import pairwise_distances_km  # local import, no cycle at call time

    rng = np.random.default_rng(cfg.seed)
    half = _SYNTH_PATCH_DEG / 2.0
    lats = _SYNTH_LAT + rng.uniform(-half, half, cfg.n)
    lons = _SYNTH_LON + rng.uniform(-half, half, cfg.n)
    alts = rng.uniform(0.0, 1500.0, cfg.n)
    stations = [StationMeta(f"S{i:03d}", float(lats[i]), float(lons[i]),
                            float(alts[i])) for i in range(cfg.n)]

    dist = pairwise_distances_km(lats, lons)
    cov = np.exp(-(dist / _SYNTH_CORR_KM) ** 2)
    chol = np.linalg.cholesky(cov + 1e-9 * np.eye(cfg.n))

    steps = np.arange(cfg.t)
    factors = list(_SYNTH_FACTORS[:cfg.d])
    values = np.empty((cfg.n, cfg.t, cfg.d))
    for d in range(cfg.d):
        base_level = 15.0 + 10.0 * d
        baseline = base_level + 3.0 * (chol @ rng.standard_normal(cfg.n))
        phase = 2.0 * np.pi * 0.02 * (chol @ rng.standard_normal(cfg.n))
        season_phase = 2.0 * np.pi * 0.02 * (chol @ rng.standard_normal(cfg.n))
        # (step mod period) keeps the cycles exactly periodic in floats
        diurnal = cfg.diurnal_amp * np.sin(
            2.0 * np.pi * (steps % 24) / 24.0 + phase[:, None])
        seasonal = cfg.seasonal_amp * np.sin(
            2.0 * np.pi * (steps % _SYNTH_SEASON) / _SYNTH_SEASON
            + season_phase[:, None])
        shocks = chol @ rng.standard_normal((cfg.t, cfg.n)).T
        ar = np.empty((cfg.n, cfg.t))
        scale = np.sqrt(1.0 - cfg.ar_coeff ** 2)
        state = shocks[:, 0]
        ar[:, 0] = state
        for t in range(1, cfg.t):
            state = cfg.ar_coeff * state + scale * shocks[:, t]
            ar[:, t] = state
        white = rng.standard_normal((cfg.n, cfg.t))
        values[:, :, d] = (baseline[:, None] + diurnal + seasonal
                           + cfg.ar_amp * ar + cfg.noise_amp * white)

    mask = np.ones_like(values, dtype=bool)
    return WeatherSeriesDataset(stations, factors, values, mask,
                                time_start=1577836800, time_step=3600)
