"""Sample pools, the known/unknown class-role protocol, and batch draws.

Raw labeled samples come from either a synthetic domain-shift generator
(Gaussian blobs on a circle, rotated and translated in the target
domain) or IDX-format image files. A role split partitions class ids
into known classes (re-indexed 0..K-1), source-unknown classes, and
target-unknown classes; applying it yields the three pools the training
loop draws from. Target ground-truth roles are kept out of every
trainer-visible accessor.

The blobs CSV writer writes each domain in blocks of SAVE_BLOCK_ROWS
rows, building one column of strings per feature with ``repr``; its bytes
are those of a row-at-a-time writer. It refuses, as a ValueError and
before it opens the file, what the reader would reject: features that are
not finite, rows without a feature, label counts unlike row counts, a
domain without rows, domains of different widths and labels beyond int64.

The blobs CSV reader checks and converts whole columns at once, with
``float`` and ``int`` as the converters, so it accepts exactly the files
that a row-at-a-time reader with the same checks accepts. Every rejection
is a DataError naming the file and the first defective line
(``file:line``).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

EXPORT_HEADER = "adagev-blobs v1"
IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
UNKNOWN_ROLE = -1
SAVE_BLOCK_ROWS = 4096


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
    """One training draw: B labeled source-known rows, B source-unknown rows,
    B target rows, plus an optional auxiliary target batch for the
    fresh-batch/combined partition-function estimates."""

    source_x: np.ndarray
    source_y: np.ndarray
    unknown_x: np.ndarray
    target_x: np.ndarray
    target_aux_x: np.ndarray | None = None


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
        xs, ys = [], []
        for c in range(cfg.class_count):
            xs.append(centers[c] + cfg.cluster_std * rng.standard_normal((per_class, cfg.dim)))
            ys.append(np.full(per_class, c, dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys)

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
    label as the int64 decimal. Rows go out in blocks of SAVE_BLOCK_ROWS,
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
            for lo in range(0, len(x), SAVE_BLOCK_ROWS):
                hi = lo + SAVE_BLOCK_ROWS
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


def _parse_rows(rows: list[str]):
    """(features, labels, is_source) of stripped nonblank rows, or None if any
    row is defective.

    Each check runs over all rows at once, with ``float`` and ``int`` as the
    converters; which row is at fault is left to ``_raise_first_defect``.
    """
    n = len(rows)
    if not n:
        return np.empty((0, 0)), np.empty(0, np.int64), np.empty(0, bool)
    commas = np.fromiter(map(str.count, rows, repeat(",")), np.int64, n)
    if commas[0] < 2 or (commas != commas[0]).any():
        return None
    width = int(commas[0]) + 1
    cells = ",".join(rows).split(",")
    domains = cells[0::width]
    if not {"source", "target"}.issuperset(domains):
        return None
    is_source = np.fromiter(map("source".__eq__, domains), bool, n)
    del cells[0::width]
    labels = cells[0::width - 1]
    del cells[0::width - 1]
    try:
        x = np.fromiter(map(float, cells), np.float64, len(cells)).reshape(n, width - 2)
        y = np.fromiter(map(int, labels), np.int64, n)
    except (ValueError, OverflowError):  # OverflowError: a label beyond int64
        return None
    if not np.isfinite(x).all():
        return None
    return x, y, is_source


def _raise_first_defect(path, lines: list[str]) -> None:
    """Check the stripped body lines one by one and raise the first defect."""
    width = None
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        parts = line.split(",")
        width = width or len(parts)
        if len(parts) < 3 or parts[0] not in ("source", "target"):
            raise DataError(f"{path}:{lineno}: malformed row")
        if len(parts) != width:
            raise DataError(f"{path}:{lineno}: {len(parts) - 2} features, "
                            f"the first row has {width - 2}")
        try:
            feats = [float(v) for v in parts[2:]]
            label = int(parts[1])
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: {e}") from e
        if not all(map(math.isfinite, feats)):
            raise DataError(f"{path}:{lineno}: non-finite feature")
        if not -2 ** 63 <= label < 2 ** 63:
            raise DataError(f"{path}:{lineno}: class label out of range")


def load_blobs(path):
    """Inverse of save_blobs; returns (source_x, source_y, target_x, target_y).

    Blank lines are skipped. Every other row must be 'source' or 'target',
    a class label that ``int`` accepts and that fits int64, and features
    that ``float`` accepts and that are finite, as many as in the first row.
    A defective file raises DataError naming its first defective line.
    """
    header, _, body = _read_text(path).partition("\n")
    if header != EXPORT_HEADER:
        raise DataError(f"{path}: bad header {header!r}")
    lines = list(map(str.strip, body.split("\n")))
    parsed = _parse_rows(list(filter(None, lines)))
    if parsed is None:
        _raise_first_defect(path, lines)
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
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 4 * (1 + expected_ndim):
        raise DataError(f"{path}: truncated header")
    magic = struct.unpack_from(">I", data, 0)[0]
    if magic != expected_magic:
        raise DataError(f"{path}: bad magic {magic:#010x}, expected {expected_magic:#010x}")
    dims = struct.unpack_from(f">{expected_ndim}I", data, 4)
    payload = data[4 * (1 + expected_ndim):]
    count = math.prod(dims)  # exact: a product of three uint32 can exceed int64
    if len(payload) < count:
        raise DataError(f"{path}: truncated payload ({len(payload)} bytes, need {count})")
    return dims, np.frombuffer(payload[:count], dtype=np.uint8)


def load_idx(images_path, labels_path):
    """IDX image/label pair -> (samples scaled to [0,1] and flattened, labels)."""
    img_dims, img_raw = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    lbl_dims, lbl_raw = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    n, rows, cols = img_dims
    if lbl_dims[0] != n:
        raise DataError(f"{labels_path}: {lbl_dims[0]} labels for the {n} images of {images_path}")
    x = img_raw.astype(np.float64).reshape(n, rows * cols) / 255.0
    return x, lbl_raw.astype(np.int64)


def apply_roles(source_x, source_y, target_x, target_y, rs: RoleSplit) -> DatasetPool:
    """Assign pools per the protocol.

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
    src_classes, tgt_classes = (set(np.unique(y).tolist()) for y in (source_y, target_y))
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


def sample_batch_triple(pool: DatasetPool, batch_size: int, rng: np.random.Generator,
                        with_aux: bool = False) -> DomainBatch:
    """Three independent uniform draws with replacement, each of size B."""
    for name, arr in (("source_known", pool.source_known_x),
                      ("source_unknown", pool.source_unknown_x),
                      ("target", pool.target_x)):
        if len(arr) < 1:
            raise DataError(f"{name} pool is empty")
    i_s = rng.integers(0, len(pool.source_known_x), size=batch_size)
    i_u = rng.integers(0, len(pool.source_unknown_x), size=batch_size)
    i_t = rng.integers(0, len(pool.target_x), size=batch_size)
    aux = None
    if with_aux:
        aux = pool.target_x[rng.integers(0, len(pool.target_x), size=batch_size)]
    return DomainBatch(
        source_x=pool.source_known_x[i_s],
        source_y=pool.source_known_y[i_s],
        unknown_x=pool.source_unknown_x[i_u],
        target_x=pool.target_x[i_t],
        target_aux_x=aux,
    )
