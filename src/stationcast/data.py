"""Station time-series containers, quality pipeline, windowing, synthesis.

A dataset is a dense [N, T, D] float64 block plus a boolean observation
mask, station coordinates, and factor names.  The pipeline operations are
pure: each returns a new dataset and leaves its input untouched.
"""

from __future__ import annotations

import csv
import io
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ConfigError, PipelineError, SchemaError, ShapeError,
                     StructuralError, check_ints, check_reals)

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
        # finite where observed, tested in place: no gather of those cells
        finite = np.ones(self.values.shape, dtype=bool)
        np.isfinite(self.values, out=finite, where=self.mask)
        if not finite.all():
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
        # an index list along the first axis copies into C order already
        return replace(self,
                       stations=[self.stations[i] for i in keep],
                       values=self.values[keep],
                       mask=self.mask[keep])

    def slice_time(self, start: int, stop: int) -> "WeatherSeriesDataset":
        return replace(self,
                       values=self.values[:, start:stop].copy(),
                       mask=self.mask[:, start:stop].copy(),
                       time_start=self.time_start + start * self.time_step)

    def select_factors(self, keep: Sequence[str]) -> "WeatherSeriesDataset":
        idx = [self.factor_index(name) for name in keep]
        # take copies once into C order; an index list on the last axis can
        # leave another order, which a second copy would then have to fix
        return replace(self,
                       factors=list(keep),
                       values=np.take(self.values, idx, axis=2),
                       mask=np.take(self.mask, idx, axis=2))


@dataclass
class WindowBatch:
    """One batch of forecasting windows cut from a single split."""

    inputs: np.ndarray   # [B, N, W_in, D]
    targets: np.ndarray  # [B, N, W_out, D]
    starts: np.ndarray   # epoch seconds of each window's first target step


# bytes of the widest activation one tape or one off-tape forward may span,
# and of one block of scoring errors: 1 MiB.  A default tape holds about 7.5
# of them per window, so the tape sets a step's peak; 2 MiB chunks held twice
# the memory for no time gained, and 512 KiB chunks looked slower.
_CHUNK_BYTES = 1 << 20


def _add_in_window_order(total: np.ndarray, block: np.ndarray) -> None:
    """Add each window's station sum of a [b, N, W, D] block to total."""
    for row in block.sum(axis=1):
        total += row


class ErrorSums:
    """Running sums of |e| and e², e = forecast − truth, per (horizon step,
    factor) over the windows and stations added so far.

    Each window's station sums are added in window order, so the sums do
    not depend on how the windows were blocked.  ``add`` sums a block of
    any length ``block`` windows at a time, so scoring holds one
    _CHUNK_BYTES block of errors, never a stack of a split's errors.
    """

    def __init__(self, stations: int, horizon: int, factors: int):
        self.shape = (stations, horizon, factors)
        if min(self.shape) < 1:
            raise ShapeError(f"nothing to score in windows of shape "
                             f"{self.shape}")
        self.block = max(1, _CHUNK_BYTES // (8 * math.prod(self.shape)))
        self.windows = 0
        self.abs_sum = np.zeros((horizon, factors))
        self.sq_sum = np.zeros((horizon, factors))

    def add(self, pred: np.ndarray, truth: np.ndarray) -> None:
        """Add a [b, N, W, D] block of forecasts and their truth."""
        if pred.shape != truth.shape or pred.shape[1:] != self.shape:
            raise ShapeError(f"forecasts {pred.shape} and truth "
                             f"{truth.shape} are not blocks of "
                             f"[windows, *{self.shape}]")
        if not len(pred):
            raise ShapeError("no windows in this empty block")
        for at in range(0, len(pred), self.block):  # one scratch array
            err = np.subtract(pred[at:at + self.block],
                              truth[at:at + self.block])
            np.abs(err, out=err)
            _add_in_window_order(self.abs_sum, err)
            np.multiply(err, err, out=err)  # |e|·|e| equals e·e bitwise
            _add_in_window_order(self.sq_sum, err)
            del err  # before the next sub-block allocates its own
        self.windows += len(pred)

    def means(self) -> tuple:
        """Mean |e| and mean e² per (horizon step, factor), [W, D] each."""
        if not self.windows:
            raise ShapeError("no windows were scored")
        cells = self.windows * self.shape[0]
        return self.abs_sum / cells, self.sq_sum / cells


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


@contextmanager
def _csv_reader(path: Path, noun: str, make=csv.reader, **options):
    """``make(stream, **options)`` over the file's UTF-8 text.  A missing
    file, a byte that is not UTF-8, or a csv.Error raised in the block is
    one error that names the file, and the line of a csv.Error."""
    try:
        text = path.read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise StructuralError(f"missing {noun} {path}") from None
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: byte {e.start} is not UTF-8") from None
    reader = make(io.StringIO(text, newline=""), **options)
    try:
        yield reader
    except csv.Error as e:
        # a DictReader counts a line only once its row has parsed
        line = getattr(reader, "reader", reader).line_num
        raise SchemaError(f"{path}, line {line}: {e}") from None


def _load_station_table(path: Path):
    """Station metadata rows of ``stations.csv`` and the series start time.

    Every row that gives ``time_start`` must give the same instant; rows
    that leave it blank are allowed.
    """
    metas: list[StationMeta] = []
    time_start, start_line = 0, None
    with _csv_reader(path, "station metadata file", csv.DictReader) as reader:
        missing = [k for k in ("station_id", "lat", "lon")
                   if k not in (reader.fieldnames or ())]
        if reader.fieldnames is not None and missing:
            raise SchemaError(f"{path}: no {', '.join(missing)} column")
        rows = [(reader.line_num, row) for row in reader]
    for line, row in rows:
        at = f"{path}, line {line}"
        try:
            sid = row["station_id"].strip()
            lat, lon = float(row["lat"]), float(row["lon"])
            alt = float(row.get("alt") or 0.0)
            if row.get("time_start"):
                t = _parse_time(row["time_start"])
                if start_line is None:
                    time_start, start_line = t, line
                elif t != time_start:
                    raise SchemaError(f"{at}: time_start {t} differs from "
                                      f"{time_start} on line {start_line}")
        except (AttributeError, TypeError):  # a short row reads None
            raise SchemaError(f"{at}: fewer fields than the header") from None
        except ValueError as e:
            raise SchemaError(f"{at}: {e}") from None
        metas.append(StationMeta(sid, lat, lon, alt))
    if not metas:
        raise StructuralError(f"{path}: lists no stations")
    return metas, time_start


def _cell_value(cell: str, f: Path, line: int) -> float:
    cell = cell.strip()
    if cell in ("", '""'):  # csv writers quote a lone empty cell as ""
        return math.nan
    try:
        return float(cell)
    except ValueError:
        raise SchemaError(f"{f}, line {line}: cell {cell!r} is not a "
                          "number") from None


def _load_series_file(f: Path):
    """Factor names and the [T, D] cells of one station's series file.

    Rows end at LF, CRLF or a lone CR, and cells are split on every comma,
    never unquoted.  Empty cells, and ``""``, read as nan; every other cell
    is parsed by ``float``, which allows surrounding whitespace.
    """
    with _csv_reader(f, "series file", quoting=csv.QUOTE_NONE) as rows:
        header = [h.strip() for h in next(rows, ())]
        if not header:
            raise StructuralError(f"{f}: empty file")
        for name in header:
            if name not in FACTOR_NAMES:
                raise SchemaError(f"{f}: unknown factor name {name!r}")
        d, cells = len(header), []
        for row in rows:
            if len(row) != d:
                raise StructuralError(f"{f}, line {rows.line_num}: row "
                                      f"width {len(row)} != {d} factors")
            cells += row
    try:
        values = np.array(list(map(float, cells)))
    except ValueError:  # blanks or non-numbers; data row r is on line r + 2
        values = np.array([_cell_value(c, f, i // d + 2)
                           for i, c in enumerate(cells)])
    return header, values.reshape(-1, d)


def _load_csv_dir(root: Path) -> WeatherSeriesDataset:
    """Read ``stations.csv`` plus one series file per station.

    A cell that is empty or does not parse to a finite number (``nan``,
    ``inf``, ``1e999``) is unobserved and reads as 0.0.
    """
    metas, time_start = _load_station_table(root / "stations.csv")
    factors, values = None, None
    for i, meta in enumerate(metas):
        f = root / f"{meta.station_id}.csv"
        header, block = _load_series_file(f)
        if factors is None:
            # the first station fixes the shape every later one fills
            factors = header
            values = np.empty((len(metas),) + block.shape)
        elif header != factors:
            raise SchemaError(f"{f}: factor columns {header} differ from "
                              f"{factors}")
        if len(block) != values.shape[1]:
            raise StructuralError(
                f"{f}: {len(block)} rows, other stations have "
                f"{values.shape[1]}")
        values[i] = block
    if not values.shape[1]:  # else the dataset's check names no file
        raise StructuralError(f"{root}: the series files hold no time steps")
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
    constructor opens the file, checks both and leaves the cursor after
    the version.  Small fields are read through the buffered file, and
    ``array`` reads each array straight from the file into its own buffer,
    so a load holds the values once.  Use it in a ``with`` block, which
    closes the file.  A wrong magic or version, reads past the end,
    undecodable strings and bytes left after the last field raise the
    format's error class (StructuralError unless given) with a one-line
    diagnostic that names the file and the format's noun, never a struct
    or index error.
    """

    def __init__(self, path, noun: str, magic: bytes, version: int,
                 error=StructuralError):
        self.what = f"{path}: {noun}"
        self.error = error
        self.file = open(path, "rb")
        try:
            self.size = os.fstat(self.file.fileno()).st_size
            self.pos = 0
            if self.take(len(magic)) != magic:
                raise error(f"{path}: not a {noun}")
            (found,) = self.unpack("I")
            if found != version:
                raise error(f"{path}: unsupported {noun} version {found}")
        except BaseException:
            self.file.close()
            raise

    def __enter__(self) -> "PackedReader":
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()

    def corrupt(self) -> Exception:
        return self.error(f"{self.what} is truncated or corrupt")

    def _advance(self, n: int) -> None:
        """Move the cursor over n bytes that the file must still hold."""
        if n < 0 or self.pos + n > self.size:
            raise self.corrupt()
        self.pos += n

    def take(self, n: int) -> bytes:
        self._advance(n)
        out = self.file.read(n)
        if len(out) != n:  # the file shrank since it was opened
            raise self.corrupt()
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def text(self, n: int) -> str:
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError:
            raise self.corrupt() from None

    def string(self) -> str:
        (n,) = self.unpack("H")
        return self.text(n)

    def array(self, dtype: str, shape) -> np.ndarray:
        """A little-endian array of this dtype and shape, read into a
        buffer of its own once the file is known to hold it."""
        dtype = np.dtype(dtype)
        self._advance(dtype.itemsize * math.prod(shape))
        out = np.empty(shape, dtype)
        if self.file.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:
            raise self.corrupt()
        return out

    def end(self) -> None:
        """Reject bytes left over after the last field."""
        if self.pos != self.size:
            raise self.error(f"{self.what} has {self.size - self.pos} "
                             "trailing bytes")


def write_packed(path, parts) -> None:
    """Write a packed file part by part, never joining the parts.

    A part is bytes, written as they are, or an array, written straight
    from its C-ordered little-endian float64 buffer (a copy only when the
    array is not already laid out so).
    """
    with open(path, "wb") as f:
        for part in parts:
            if not isinstance(part, bytes):
                part = np.ascontiguousarray(part, dtype="<f8")
            f.write(part)


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
    parts.append(ds.values)
    parts.append(np.packbits(ds.mask.reshape(-1)).tobytes())
    write_packed(path, parts)


def _load_binary(path: Path) -> WeatherSeriesDataset:
    with PackedReader(path, "packed dataset file", _MAGIC, _VERSION) as cur:
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
        packed = cur.array("u1", ((count + 7) // 8,))
        cur.end()
    # unpackbits gives each cell 0 or 1, which reads as bool without a copy
    mask = np.unpackbits(packed, count=count).view(bool).reshape(n, t, d)
    return WeatherSeriesDataset(stations, factors, values, mask,
                                time_start=time_start, time_step=time_step)


# ---------------------------------------------------------------------------
# quality screening


def _drop_over(screen: str, ds: WeatherSeriesDataset, max_ratio,
               ratios: np.ndarray):
    """Drop every station with any of its [N, k] ratios above max_ratio, a
    share of steps in [0, 1]; returns the kept dataset and the dropped
    station ids in station order."""
    check_reals(**{f"{screen} max_ratio": max_ratio})
    if not 0.0 <= max_ratio <= 1.0:
        raise ConfigError(f"{screen} max_ratio {max_ratio} lies outside "
                          "[0, 1]")
    over = (ratios > max_ratio).any(axis=1)
    if over.all():
        raise PipelineError(f"{screen} screening dropped every station")
    return (ds.select_stations(np.flatnonzero(~over)),
            [ds.stations[i].station_id for i in np.flatnonzero(over)])


def screen_missing(ds: WeatherSeriesDataset, max_ratio: float = 0.01):
    """Drop stations with too many incomplete records.

    A record (one time step of one station) counts as missing when any
    factor cell is unobserved; the station is dropped when the missing
    fraction strictly exceeds ``max_ratio``.
    """
    ratios = (~ds.mask.all(axis=2)).mean(axis=1)  # [N] record-missing shares
    out, dropped = _drop_over("missing-data", ds, max_ratio, ratios[:, None])
    return out, {
        "rule": "whole-record: a step is missing if any factor cell is unobserved",
        "max_ratio": max_ratio,
        "ratios": {s.station_id: float(r)
                   for s, r in zip(ds.stations, ratios)},
        "dropped": dropped,
    }


def screen_defaults(ds: WeatherSeriesDataset, max_ratio: float = 0.01):
    """Drop stations where any factor reports its default code too often.

    The codes are ``DEFAULT_CODES``.  Surviving default-code cells are
    masked as unobserved so interpolation replaces them.
    """
    coded = [name for name in ds.factors if name in DEFAULT_CODES]
    ratios = np.empty((ds.n_stations, len(coded)))  # [N, k] hit shares
    mask = ds.mask.copy()
    for j, name in enumerate(coded):  # one [N, T] hit plane at a time
        d = ds.factor_index(name)
        hits = ds.values[:, :, d] == DEFAULT_CODES[name]
        ratios[:, j] = hits.mean(axis=1)
        mask[:, :, d] &= ~hits
    out, dropped = _drop_over("default-code", replace(ds, mask=mask),
                              max_ratio, ratios)
    return out, {
        "max_ratio": max_ratio,
        "ratios": {s.station_id: dict(zip(coded, map(float, row)))
                   for s, row in zip(ds.stations, ratios)} if coded else {},
        "dropped": dropped,
    }


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


def split_temporal(ds: WeatherSeriesDataset,
                   scheme: Sequence[float] = (3, 1, 2)):
    """Cut the timeline into contiguous train/val/test segments.

    ``scheme`` is a ratio triple like (3, 1, 2); each part's length is
    rounded down, and the test segment takes the steps left over.  A part
    left without a step is a ConfigError naming it.
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
    for part, (a, b) in zip(("training", "validation", "test"), ranges):
        if a == b:
            raise ConfigError(f"split {scheme} leaves the {part} part empty")
    return tuple(ds.slice_time(a, b) for a, b in ranges)


def check_windows(w_in: int, w_out: int, **splits) -> None:
    """Each keyword's split must hold one window of w_in + w_out steps, both
    positive; the ConfigError names the first split that does not."""
    if w_in <= 0 or w_out <= 0:
        raise ConfigError("window lengths must be positive")
    span = w_in + w_out
    for name, split in splits.items():
        if split.n_steps < span:
            raise ConfigError(f"{name} split has {split.n_steps} steps, "
                              f"fewer than the {span} one window spans")


def window_view(split: WeatherSeriesDataset, w_in: int, w_out: int):
    """Every window of a split: (view, starts).

    ``view`` is a read-only [B, N, w_in + w_out, D] view of the values, with
    B = max(0, T - w_in - w_out + 1) windows, none crossing the split's end.
    ``starts`` labels each window by its first target step's epoch seconds.
    """
    n, t, d = split.values.shape
    span = w_in + w_out
    if t < span:  # sliding_window_view raises where no window fits
        return np.empty((0, n, span, d)), np.empty(0, dtype=np.int64)
    view = sliding_window_view(split.values, span, axis=1)
    steps = np.arange(t - span + 1, dtype=np.int64) + w_in
    return (view.transpose(1, 0, 3, 2),
            split.time_start + steps * split.time_step)


def make_windows(split: WeatherSeriesDataset, w_in: int, w_out: int,
                 batch_size: Optional[int] = None,
                 shuffle_rng: Optional[np.random.Generator] = None
                 ) -> Iterator[WindowBatch]:
    """Yield batches of window_view's windows, in window order or in the
    order shuffle_rng draws; each batch's inputs and targets are C-ordered
    copies gathered from the view.
    """
    check_windows(w_in, w_out)
    view, starts = window_view(split, w_in, w_out)
    order = (np.arange(len(starts)) if shuffle_rng is None
             else shuffle_rng.permutation(len(starts)))
    if batch_size is None:
        batch_size = max(len(order), 1)
    for at in range(0, len(order), batch_size):
        idx = order[at:at + batch_size]
        yield WindowBatch(view[idx, :, :w_in], view[idx, :, w_in:],
                          starts[idx])


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
        # the [N, T, D] series and [N, N] covariance must fit numpy's intp
        if 8 * self.n * max(self.t * self.d, self.n) > np.iinfo(np.intp).max:
            raise ConfigError(f"n {self.n}, t {self.t} and d {self.d} size "
                              "arrays larger than numpy can index")
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
    # two [N, T] planes of scratch serve every factor, and the factor's own
    # plane of values holds one term at a time until the sum fills it
    field, total = np.empty((cfg.n, cfg.t)), np.empty((cfg.n, cfg.t))
    scale = np.sqrt(1.0 - cfg.ar_coeff ** 2)
    for d in range(cfg.d):
        plane = values[:, :, d]
        base_level = 15.0 + 10.0 * d
        baseline = base_level + 3.0 * (chol @ rng.standard_normal(cfg.n))
        phase = 2.0 * np.pi * 0.02 * (chol @ rng.standard_normal(cfg.n))
        season_phase = 2.0 * np.pi * 0.02 * (chol @ rng.standard_normal(cfg.n))
        # [T, N] shocks, correlated across stations, then AR(1) in place
        shocks = rng.standard_normal(out=total.reshape(cfg.t, cfg.n))
        np.matmul(chol, shocks.T, out=field)
        for t in range(1, cfg.t):
            field[:, t] = cfg.ar_coeff * field[:, t - 1] + scale * field[:, t]
        # (step mod period) keeps the cycles exactly periodic in floats
        for out, period, shift, amp in (
                (total, 24, phase, cfg.diurnal_amp),
                (plane, _SYNTH_SEASON, season_phase, cfg.seasonal_amp)):
            np.add(2.0 * np.pi * (steps % period) / period, shift[:, None],
                   out=out)
            np.sin(out, out=out)
            out *= amp
        # baseline + diurnal + seasonal + AR + noise, added in that order
        total += baseline[:, None]
        total += plane
        np.multiply(cfg.ar_amp, field, out=plane)
        total += plane
        rng.standard_normal(out=field)  # the noise, drawn after the shocks
        field *= cfg.noise_amp
        np.add(total, field, out=plane)
    del field, total, shocks, plane  # before the mask is allocated

    mask = np.ones_like(values, dtype=bool)
    return WeatherSeriesDataset(stations, factors, values, mask,
                                time_start=1577836800, time_step=3600)
