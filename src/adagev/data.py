"""Sample pools, the known/unknown class-role protocol, and batch draws.

Raw labeled samples come from either a synthetic domain-shift generator
(Gaussian blobs on a circle, rotated and translated in the target
domain) or IDX-format image files. A role split partitions class ids
into known classes (re-indexed 0..K-1), source-unknown classes, and
target-unknown classes; applying it yields the three pools the training
loop draws from. Target ground-truth roles are kept out of every
trainer-visible accessor.

The blobs CSV writer writes each domain in blocks of CSV_BLOCK_ROWS
rows, building one column of strings per feature with ``repr``; its bytes
are those of a row-at-a-time writer. It refuses, as a ValueError and
before it opens the file, what the reader would reject: features that are
not finite, rows without a feature, label counts unlike row counts, a
domain without rows, domains of different widths and labels beyond int64.

The blobs CSV reader reads the body in one call of numpy's C text reader,
and that reader defines the format. Its result is kept when every domain
is 'source' or 'target', every feature is finite and the file holds no NUL
(numpy drops a string field's trailing NULs). Any other file (numpy erred
or warned, or a check failed; none that ``save_blobs`` writes) is refused:
the row checker reads it one line at a time and raises a DataError naming
the file and the first defective line (``file:line``), with a
row-at-a-time reader's messages; a byte that is not UTF-8 is reported
first, wherever it is.

An IDX file is read whole and its payload taken as a uint8 view of those
bytes, not copied; a file shorter or longer than its header says is a
DataError. ``read_idx`` checks an image/label pair and keeps the pixels as
uint8 rows, so that the CLI can let ``apply_roles`` pick the rows first and
scale only the kept ones to float64, with the same bits. ``load_idx`` scales
every row, and keeps its float line as it was, ``astype`` then a reshape
then the division: the reshape is a view, so numpy holds two full-size
arrays at once. A one-array form of that line read a higher peak RSS on
the benchmark's wide-idx workload, whose set-up calls ``load_idx``.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

EXPORT_HEADER = "adagev-blobs v1"
IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
UNKNOWN_ROLE = -1
CSV_BLOCK_ROWS = 4096  # rows per block the blobs CSV writer writes


class DataError(ValueError):
    """Malformed dataset files, or a role split that the data does not fit."""


@dataclass(frozen=True)
class RoleSplit:
    """Partition of class ids into known / source-unknown / target-unknown."""

    known: tuple[int, ...]
    source_unknown: tuple[int, ...] = ()
    target_unknown: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.known:
            raise ValueError("known class list must be nonempty")
        ids = [*self.known, *self.source_unknown, *self.target_unknown]
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if repeated:
            raise ValueError(f"class ids {repeated} appear more than once in the role lists")

    @property
    def num_known(self) -> int:
        return len(self.known)


def digits_split() -> RoleSplit:
    """The conventional digits protocol: 0-3 known, 4-6 source unknown, 7-9 target unknown."""
    return RoleSplit(known=(0, 1, 2, 3), source_unknown=(4, 5, 6), target_unknown=(7, 8, 9))


@dataclass
class DomainBatch:
    """One training draw: B labeled source-known rows, B source-unknown rows
    and B target rows."""

    source_x: np.ndarray
    source_y: np.ndarray
    unknown_x: np.ndarray
    target_x: np.ndarray


@dataclass
class DatasetPool:
    """The three sample pools after role assignment.

    Target roles (known-class label or UNKNOWN_ROLE) are held in a
    private field; only the evaluator should call eval_target_roles().
    """

    source_known_x: np.ndarray
    source_known_y: np.ndarray
    source_unknown_x: np.ndarray
    target_x: np.ndarray
    _target_roles: np.ndarray = field(repr=False, default=None)

    @property
    def feature_dim(self) -> int:
        return self.source_known_x.shape[1]

    def eval_target_roles(self) -> np.ndarray:
        """Ground-truth target roles, for evaluation only."""
        return self._target_roles.copy()


@dataclass(frozen=True)
class BlobShiftConfig:
    """Synthetic benchmark: Gaussian classes on a radius-3 circle; the
    target domain sees the class means rotated and translated."""

    class_count: int = 10
    dim: int = 2
    cluster_std: float = 0.35
    rotation: float = np.deg2rad(25.0)
    translation: tuple[float, ...] = (0.3, -0.2)
    source_per_class: int = 200
    target_per_class: int = 150
    seed: int = 0

    def __post_init__(self):
        if self.class_count < 1 or self.dim < 2:
            raise ValueError("need class_count >= 1 and dim >= 2")
        if not (np.isfinite(self.cluster_std) and self.cluster_std > 0):
            raise ValueError("cluster_std must be a positive finite real")
        if self.source_per_class < 1 or self.target_per_class < 1:
            raise ValueError("per-class counts must be positive")
        if len(self.translation) != 2:
            raise ValueError("translation applies to the circle plane, give 2 components")
        if not np.isfinite([self.rotation, *self.translation]).all():
            raise ValueError("rotation and translation must be finite")


def _class_means(cfg: BlobShiftConfig) -> np.ndarray:
    angles = 2 * np.pi * np.arange(cfg.class_count) / cfg.class_count
    means = np.zeros((cfg.class_count, cfg.dim))
    means[:, 0] = 3.0 * np.cos(angles)
    means[:, 1] = 3.0 * np.sin(angles)
    return means


def gen_shifted_blobs(cfg: BlobShiftConfig):
    """Returns (source_x, source_y, target_x, target_y), deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    means = _class_means(cfg)
    cos, sin = np.cos(cfg.rotation), np.sin(cfg.rotation)
    shifted = means.copy()
    shifted[:, 0] = cos * means[:, 0] - sin * means[:, 1] + cfg.translation[0]
    shifted[:, 1] = sin * means[:, 0] + cos * means[:, 1] + cfg.translation[1]

    def draw(centers, per_class):
        x = np.empty((cfg.class_count * per_class, cfg.dim))
        for c in range(cfg.class_count):
            rows = x[c * per_class:(c + 1) * per_class]
            rng.standard_normal(out=rows)
            rows *= cfg.cluster_std
            rows += centers[c]
        return x, np.repeat(np.arange(cfg.class_count, dtype=np.int64), per_class)

    # a cluster_std near the float64 limit overflows to inf, which the blobs'
    # finite check reports, without numpy's warning before it
    with np.errstate(over="ignore"):
        src_x, src_y = draw(means, cfg.source_per_class)
        tgt_x, tgt_y = draw(shifted, cfg.target_per_class)
    return src_x, src_y, tgt_x, tgt_y


def _blob_columns(domain, x, y):
    """x as float64 rows of at least one finite feature and y as int64, with
    as many labels as rows and at least one row; anything else is a ValueError."""
    x = np.asarray(x, dtype=np.float64)
    try:
        with np.errstate(invalid="raise"):
            y = np.asarray(y).astype(np.int64)
    except (OverflowError, FloatingPointError) as e:
        raise ValueError(f"{domain} class labels must be integers that fit int64") from e
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError(f"{domain} features must be rows of at least one column, "
                         f"got shape {x.shape}")
    if y.shape != (len(x),):
        raise ValueError(f"{len(x)} {domain} rows but labels of shape {y.shape}")
    if not len(x):
        raise ValueError(f"no {domain} rows")
    if not np.isfinite(x).all():
        raise ValueError(f"{domain} features must be finite")
    return x, y


def save_blobs(path, source_x, source_y, target_x, target_y) -> None:
    """CSV export: header line, then 'domain,class,feat0,feat1,...' rows.

    Each feature is written as the ``repr`` of its float64 value and each
    label as the int64 decimal. Rows go out in blocks of CSV_BLOCK_ROWS,
    one column of strings per feature. Features that are not finite, a
    label count unlike the row count, rows without a feature, a domain
    without rows, domains of different widths and labels beyond int64 are a
    ValueError, raised before the file is opened.
    """
    domains = [("source", *_blob_columns("source", source_x, source_y)),
               ("target", *_blob_columns("target", target_x, target_y))]
    widths = [x.shape[1] for _, x, _ in domains]
    if widths[0] != widths[1]:
        raise ValueError(f"source rows have {widths[0]} features, target rows {widths[1]}")
    with open(path, "w", encoding="utf-8") as f:
        f.write(EXPORT_HEADER + "\n")
        for domain, x, y in domains:
            for lo in range(0, len(x), CSV_BLOCK_ROWS):
                hi = lo + CSV_BLOCK_ROWS
                cols = [map(repr, col) for col in x[lo:hi].T.tolist()]
                rows = zip(repeat(domain), map(str, y[lo:hi].tolist()), *cols)
                f.write("\n".join(map(",".join, rows)) + "\n")


def _read_text(path) -> str:
    """The whole of a UTF-8 text file, with '\\r\\n' and '\\r' read as '\\n';
    text that is not UTF-8 is a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text: {e}") from e


def _read_c(path, f, body):
    """(features, labels, is_source) of the body lines, which start at
    position ``body`` of ``f``, from one call of numpy's C text reader, or
    None where numpy refuses them or a check fails."""
    width = next(filter(str.strip, iter(f.readline, "")), "").count(",") + 1
    if width < 3:
        return None
    f.seek(body)
    dtype = [("domain", "U7"), ("label", np.int64), ("x", np.float64, (width - 2,))]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(f, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, TypeError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    with open(path, "rb") as raw:  # numpy drops a string field's trailing NULs
        nul = any(b"\0" in chunk for chunk in iter(lambda: raw.read(1 << 20), b""))
    is_source = rows["domain"] == "source"
    ok = (is_source | (rows["domain"] == "target")).all() and np.isfinite(rows["x"]).all()
    return (rows["x"], rows["label"], is_source) if ok and not nul else None


def _raise_first_defect(path, f):
    """Raise the DataError of the first defective body line of ``f``, read
    one line at a time; a body without one is refused all the same."""
    width = None
    for lineno, line in enumerate(f, start=2):
        if line == "\n":
            continue
        parts = line.removesuffix("\n").split(",")
        width = width or len(parts)
        if len(parts) < 3 or parts[0] not in ("source", "target") or not all(
                cell.isascii() and "_" not in cell for cell in map(str.strip, parts[1:])):
            raise DataError(f"{path}:{lineno}: malformed row")
        if len(parts) != width:
            raise DataError(f"{path}:{lineno}: {len(parts) - 2} features, "
                            f"the first row has {width - 2}")
        try:
            row = [float(v) for v in parts[2:]]
            label = int(parts[1])
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: {e}") from e
        if not all(map(math.isfinite, row)):
            raise DataError(f"{path}:{lineno}: non-finite feature")
        if not -2 ** 63 <= label < 2 ** 63:
            raise DataError(f"{path}:{lineno}: class label out of range")
    if width is None:
        raise DataError(f"{path}: no source rows")
    raise DataError(f"{path}: refused by numpy's text reader, with no defective row found")


def load_blobs(path):
    """Inverse of save_blobs; returns (source_x, source_y, target_x, target_y).

    The arrays come from numpy's C text reader alone. Empty lines are
    skipped; every other line is 'source' or 'target', spelled exactly, a
    label that fits int64 and finite features, as many as in the first row,
    in spellings numpy reads. A label or feature may have whitespace around
    it, ASCII or not; within that whitespace it is ASCII without '_'. Any
    other line (an indented one, one of only whitespace, a number holding
    '_' or a character beyond ASCII) is a malformed row. A defective file
    raises DataError naming its first defective line, or its first byte
    that is not UTF-8, wherever that byte is.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().removesuffix("\n")
            if header != EXPORT_HEADER:
                raise DataError(f"{path}: bad header {header!r}")
            body = f.tell()
            parsed = _read_c(path, f, body)
            if parsed is None:
                f.seek(body)
                _raise_first_defect(path, f)
    except (DataError, UnicodeDecodeError):
        _read_text(path)  # a byte that is not UTF-8, anywhere in the file, is reported first
        raise
    x, y, is_source = parsed
    out = []
    for domain, mask in (("source", is_source), ("target", ~is_source)):
        if not mask.any():
            raise DataError(f"{path}: no {domain} rows")
        out.extend([x[mask], y[mask]])
    return tuple(out)


def load_reals(path) -> np.ndarray:
    """One finite real per line; blank lines and '#' comments are skipped."""
    values = []
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(float(line))
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: not a real: {line!r}") from e
        if not math.isfinite(values[-1]):
            raise DataError(f"{path}:{lineno}: not a finite real: {line!r}")
    return np.asarray(values)


def _read_idx(path, expected_magic, expected_ndim):
    """(dims, the payload as uint8) of an IDX file, the payload a view of the
    bytes read; a file shorter or longer than its header says is a DataError."""
    with open(path, "rb") as f:
        data = f.read()
    header_size = 4 * (1 + expected_ndim)
    if len(data) < header_size:
        raise DataError(f"{path}: truncated header")
    magic = struct.unpack_from(">I", data, 0)[0]
    if magic != expected_magic:
        raise DataError(f"{path}: bad magic {magic:#010x}, expected {expected_magic:#010x}")
    dims = struct.unpack_from(f">{expected_ndim}I", data, 4)
    size = len(data) - header_size
    count = math.prod(dims)  # exact: a product of three uint32 can exceed int64
    if size < count:
        raise DataError(f"{path}: truncated payload ({size} bytes, need {count})")
    if size > count:
        raise DataError(f"{path}: {size - count} bytes after the {count}-byte payload "
                        f"that its header gives")
    return dims, np.frombuffer(data, np.uint8, count=count, offset=header_size)


def read_idx(images_path, labels_path):
    """IDX image/label pair -> (uint8 images as rows of rows*cols pixels, int64 labels)."""
    img_dims, img_raw = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    n, rows, cols = img_dims
    if not rows * cols:
        raise DataError(f"{images_path}: images of {rows} x {cols} pixels have no pixel")
    lbl_dims, lbl_raw = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    if lbl_dims[0] != n:
        raise DataError(f"{labels_path}: {lbl_dims[0]} labels for the {n} images of {images_path}")
    return img_raw.reshape(n, rows * cols), lbl_raw.astype(np.int64)


def load_idx(images_path, labels_path):
    """IDX image/label pair -> (samples scaled to [0,1] and flattened, labels)."""
    raw, labels = read_idx(images_path, labels_path)
    x = raw.astype(np.float64).reshape(raw.shape) / 255.0  # see the module docstring
    return x, labels


def apply_roles(source_x, source_y, target_x, target_y, rs: RoleSplit) -> DatasetPool:
    """Assign pools per the protocol. It only selects rows, so the samples
    may be arrays of any dtype, and the pools keep it.

    Source: known-class samples keep labels re-indexed by position in the
    known list; source-unknown samples drop their labels; target-unknown
    class samples are dropped. Target: known and target-unknown class
    samples are retained (with hidden roles); source-unknown class
    samples are dropped.
    """
    source_y = np.asarray(source_y, dtype=np.int64)
    target_y = np.asarray(target_y, dtype=np.int64)
    if np.shape(source_x)[1:] != np.shape(target_x)[1:]:
        raise DataError(f"source samples have shape {np.shape(source_x)[1:]}, "
                        f"target samples {np.shape(target_x)[1:]}")
    # the classes present, found with isin: np.unique would load numpy.ma
    ids = [c for c in {*rs.known, *rs.source_unknown, *rs.target_unknown} if -2**63 <= c < 2**63]
    src_classes, tgt_classes = ({c for c, hit in zip(ids, np.isin(ids, y).tolist()) if hit}
                                for y in (source_y, target_y))
    for c in rs.known:
        if c not in src_classes or c not in tgt_classes:
            raise DataError(f"known class {c} missing from source or target")
    for c in rs.source_unknown:
        if c not in src_classes:
            raise DataError(f"source-unknown class {c} missing from source")
    for c in rs.target_unknown:
        if c not in tgt_classes:
            raise DataError(f"target-unknown class {c} missing from target")

    # Every known id occurs in the labels, so it fits int64; a known label's
    # index in the known list is found through the list's sort order.
    known = np.asarray(rs.known, dtype=np.int64)
    order = np.argsort(known).astype(np.int64)
    known_mask = np.isin(source_y, known)
    unknown_mask = np.isin(source_y, rs.source_unknown)
    source_known_x = np.asarray(source_x)[known_mask]
    source_known_y = order[np.searchsorted(known, source_y[known_mask], sorter=order)]

    tgt_known = np.isin(target_y, known)
    tgt_keep = tgt_known | np.isin(target_y, rs.target_unknown)
    roles = np.full(np.count_nonzero(tgt_keep), UNKNOWN_ROLE, dtype=np.int64)
    roles[tgt_known[tgt_keep]] = order[np.searchsorted(known, target_y[tgt_known], sorter=order)]
    return DatasetPool(
        source_known_x=source_known_x,
        source_known_y=source_known_y,
        source_unknown_x=np.asarray(source_x)[unknown_mask],
        target_x=np.asarray(target_x)[tgt_keep],
        _target_roles=roles,
    )


def sample_batch_triple(pool: DatasetPool, batch_size: int,
                        rng: np.random.Generator) -> DomainBatch:
    """Three independent uniform draws with replacement, each of size B."""
    for name, arr in (("source_known", pool.source_known_x),
                      ("source_unknown", pool.source_unknown_x),
                      ("target", pool.target_x)):
        if len(arr) < 1:
            raise DataError(f"{name} pool is empty")
    i_s = rng.integers(0, len(pool.source_known_x), size=batch_size)
    i_u = rng.integers(0, len(pool.source_unknown_x), size=batch_size)
    i_t = rng.integers(0, len(pool.target_x), size=batch_size)
    return DomainBatch(
        source_x=pool.source_known_x[i_s],
        source_y=pool.source_known_y[i_s],
        unknown_x=pool.source_unknown_x[i_u],
        target_x=pool.target_x[i_t],
    )
