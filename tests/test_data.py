import math
import struct
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adagev import data as dt


@contextmanager
def invalid_setting(match=None):
    """A plain ValueError: the value is invalid on its own, so it is not a DataError."""
    with pytest.raises(ValueError, match=match) as info:
        yield
    assert type(info.value) is ValueError


class TestRoleSplit:
    def test_digits_split(self):
        rs = dt.digits_split()
        assert rs.known == (0, 1, 2, 3)
        assert rs.source_unknown == (4, 5, 6)
        assert rs.target_unknown == (7, 8, 9)
        assert rs.num_known == 4

    def test_empty_known_rejected(self):
        with invalid_setting():
            dt.RoleSplit(known=())

    def test_overlap_rejected(self):
        with invalid_setting():
            dt.RoleSplit(known=(0, 1), source_unknown=(1, 2))
        with invalid_setting():
            dt.RoleSplit(known=(0,), source_unknown=(1,), target_unknown=(1,))

    @pytest.mark.parametrize("lists", [dict(known=(0, 0)), dict(known=(0,), source_unknown=(1, 1)),
                                       dict(known=(0,), target_unknown=(2, 3, 2))])
    def test_repeated_id_within_a_list_rejected(self, lists):
        with invalid_setting(match="appear more than once"):
            dt.RoleSplit(**lists)


class TestBlobGeneration:
    def test_shapes_and_labels(self):
        cfg = dt.BlobShiftConfig()
        sx, sy, tx, ty = dt.gen_shifted_blobs(cfg)
        assert sx.shape == (2000, 2) and sy.shape == (2000,)
        assert tx.shape == (1500, 2) and ty.shape == (1500,)
        assert set(sy.tolist()) == set(range(10))
        np.testing.assert_array_equal(np.bincount(sy), 200)
        np.testing.assert_array_equal(np.bincount(ty), 150)

    def test_deterministic(self):
        cfg = dt.BlobShiftConfig(seed=7)
        a = dt.gen_shifted_blobs(cfg)
        b = dt.gen_shifted_blobs(cfg)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_source_means_on_circle(self):
        cfg = dt.BlobShiftConfig(source_per_class=2000)
        sx, sy, _, _ = dt.gen_shifted_blobs(cfg)
        for c in range(10):
            mean = sx[sy == c].mean(axis=0)
            np.testing.assert_allclose(np.linalg.norm(mean), 3.0, atol=0.05)

    def test_target_shift_applied(self):
        cfg = dt.BlobShiftConfig(target_per_class=2000)
        _, _, tx, ty = dt.gen_shifted_blobs(cfg)
        # class 0 source mean is (3, 0); rotated by 25 deg and translated
        expected = np.array([3 * np.cos(np.deg2rad(25)) + 0.3,
                             3 * np.sin(np.deg2rad(25)) - 0.2])
        np.testing.assert_allclose(tx[ty == 0].mean(axis=0), expected, atol=0.05)

    def test_config_validation(self):
        with invalid_setting():
            dt.BlobShiftConfig(cluster_std=0.0)
        with invalid_setting():
            dt.BlobShiftConfig(dim=1)
        with invalid_setting():
            dt.BlobShiftConfig(translation=(1.0,))

    @pytest.mark.parametrize("setting", [dict(cluster_std=np.nan), dict(cluster_std=np.inf),
                                         dict(rotation=np.nan), dict(translation=(np.nan, 0.0)),
                                         dict(translation=(0.0, -np.inf))])
    def test_non_finite_setting_rejected(self, setting):
        with invalid_setting():
            dt.BlobShiftConfig(**setting)


class TestBlobCsv:
    def test_round_trip(self, tmp_path):
        cfg = dt.BlobShiftConfig(class_count=3, source_per_class=5, target_per_class=4)
        sx, sy, tx, ty = dt.gen_shifted_blobs(cfg)
        path = tmp_path / "blobs.csv"
        dt.save_blobs(path, sx, sy, tx, ty)
        lx, ly, mx, my = dt.load_blobs(path)
        np.testing.assert_array_equal(lx, sx)
        np.testing.assert_array_equal(ly, sy)
        np.testing.assert_array_equal(mx, tx)
        np.testing.assert_array_equal(my, ty)

    def test_header_line(self, tmp_path):
        path = tmp_path / "blobs.csv"
        dt.save_blobs(path, np.ones((1, 2)), [0], np.ones((1, 2)), [0])
        assert path.read_text().splitlines()[0] == "adagev-blobs v1"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong header\nsource,0,1.0,2.0\n")
        with pytest.raises(dt.DataError):
            dt.load_blobs(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("adagev-blobs v1\nsource,0,1.0\nneither,0,1.0\n")
        with pytest.raises(dt.DataError):
            dt.load_blobs(path)

    def test_non_numeric_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("adagev-blobs v1\nsource,0,abc\ntarget,0,1.0\n")
        with pytest.raises(dt.DataError):
            dt.load_blobs(path)

    def test_missing_domain(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("adagev-blobs v1\nsource,0,1.0,2.0\n")
        with pytest.raises(dt.DataError):
            dt.load_blobs(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"adagev-blobs v1\nsource,0,1.0,2.0\ntarget,0,1.0,{value}\n")
        with pytest.raises(dt.DataError, match=r"bad\.csv:3: non-finite"):
            dt.load_blobs(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("adagev-blobs v1\nsource,0,1.0,2.0\ntarget,0,1.0,2.0,3.0\n")
        with pytest.raises(dt.DataError, match=r"bad\.csv:3: 3 features"):
            dt.load_blobs(path)


class TestLoadReals:
    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# header\n1.5\n\n-2\n")
        np.testing.assert_array_equal(dt.load_reals(path), [1.5, -2.0])

    def test_non_numeric_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1.0\nbanana\n")
        with pytest.raises(dt.DataError, match=r"v\.txt:2: not a real"):
            dt.load_reals(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_line(self, tmp_path, value):
        path = tmp_path / "v.txt"
        path.write_text(f"1.0\n{value}\n")
        with pytest.raises(dt.DataError, match=r"v\.txt:2: not a finite real"):
            dt.load_reals(path)


def write_idx_pair(tmp_path, images, labels):
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols)
                         + images.astype(np.uint8).tobytes())
    lbl_path.write_bytes(struct.pack(">II", 0x00000801, n)
                         + labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (5, 4, 3), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        img_path, lbl_path = write_idx_pair(tmp_path, images, labels)
        x, y = dt.load_idx(img_path, lbl_path)
        assert x.shape == (5, 12)
        assert x.min() >= 0.0 and x.max() <= 1.0
        np.testing.assert_allclose(x, images.reshape(5, 12) / 255.0)
        np.testing.assert_array_equal(y, labels)

    def test_every_byte_scales_as_before(self, tmp_path):
        images = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        img_path, lbl_path = write_idx_pair(tmp_path, images, np.zeros(4, dtype=np.uint8))
        x, _ = dt.load_idx(img_path, lbl_path)
        expected = np.array([b / 255.0 for b in range(256)]).reshape(4, 64)
        assert x.dtype == np.float64 and x.tobytes() == expected.tobytes()

    def test_bad_magic(self, tmp_path):
        img_path, lbl_path = write_idx_pair(
            tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
        data = bytearray(img_path.read_bytes())
        data[3] = 0x99
        img_path.write_bytes(bytes(data))
        with pytest.raises(dt.DataError):
            dt.load_idx(img_path, lbl_path)

    def test_truncated_payload(self, tmp_path):
        img_path, lbl_path = write_idx_pair(
            tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
        data = img_path.read_bytes()
        img_path.write_bytes(data[:-3])
        with pytest.raises(dt.DataError):
            dt.load_idx(img_path, lbl_path)

    def test_count_mismatch(self, tmp_path):
        img_path, lbl_path = write_idx_pair(
            tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
        lbl_path.write_bytes(struct.pack(">II", 0x00000801, 3) + b"\x00\x00\x00")
        with pytest.raises(dt.DataError):
            dt.load_idx(img_path, lbl_path)


HEADER = (dt.EXPORT_HEADER + "\n").encode()
# Row-shaped text from a small alphabet reaches the row parser more often
# than arbitrary bytes do.
blob_rows = st.lists(
    st.tuples(st.sampled_from([b"source", b"target", b"src", b""]),
              st.sampled_from([b"0", b"1", b"-3", b"x", b"9" * 25, b""]),
              st.lists(st.sampled_from([b"1.5", b"-0", b"nan", b"1e999", b"2_0", b"",
                                        b"\xff", b"\x00"]), max_size=3))
    .map(lambda r: b",".join([r[0], r[1], *r[2]])),
    max_size=6).map(b"\n".join)


@given(st.one_of(st.binary(max_size=200), st.binary(max_size=200).map(HEADER.__add__),
                 blob_rows.map(HEADER.__add__)))
@settings(max_examples=300, deadline=None)
def test_any_bytes_load_as_blobs_or_raise_data_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "blobs.csv"
    path.write_bytes(raw)
    try:
        src_x, src_y, tgt_x, tgt_y = dt.load_blobs(path)
    except dt.DataError:
        return
    for x, y in ((src_x, src_y), (tgt_x, tgt_y)):
        assert x.dtype == np.float64 and y.dtype == np.int64
        assert x.ndim == 2 and x.shape[1] >= 1 and len(x) == len(y) >= 1
        assert np.isfinite(x).all()
    assert src_x.shape[1] == tgt_x.shape[1]


@given(st.sampled_from([(dt.IDX_IMAGE_MAGIC, 3), (dt.IDX_LABEL_MAGIC, 1)]),
       st.one_of(st.binary(max_size=64),
                 st.tuples(st.lists(st.integers(0, 2 ** 32 - 1), min_size=3, max_size=3),
                           st.binary(max_size=64))
                 .map(lambda t: struct.pack(">IIII", dt.IDX_IMAGE_MAGIC, *t[0]) + t[1]),
                 st.tuples(st.integers(0, 70), st.binary(max_size=80))
                 .map(lambda t: struct.pack(">II", dt.IDX_LABEL_MAGIC, t[0]) + t[1])))
@settings(max_examples=300, deadline=None)
def test_any_bytes_read_as_idx_or_raise_data_error(tmp_path_factory, kind, raw):
    magic, ndim = kind
    path = tmp_path_factory.mktemp("fuzz") / "file.idx"
    path.write_bytes(raw)
    try:
        dims, values = dt._read_idx(path, magic, ndim)
    except dt.DataError:
        return
    assert len(dims) == ndim and values.dtype == np.uint8
    assert values.size == int(np.prod(dims, dtype=object))


def reference_load_blobs(path):
    """The row-at-a-time reader that load_blobs replaced, kept as its reference."""
    def numbered_lines():
        try:
            with open(path, "r", encoding="utf-8") as f:
                yield from enumerate(f, start=1)
        except UnicodeDecodeError as e:
            raise dt.DataError(f"{path}: not UTF-8 text: {e}") from e

    lines = numbered_lines()
    _, header = next(lines, (1, ""))
    header = header.rstrip("\n")
    if header != dt.EXPORT_HEADER:
        raise dt.DataError(f"{path}: bad header {header!r}")
    rows = {"source": ([], []), "target": ([], [])}
    width = None
    for lineno, line in lines:
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        width = width or len(parts)
        if len(parts) < 3 or parts[0] not in rows:
            raise dt.DataError(f"{path}:{lineno}: malformed row")
        if len(parts) != width:
            raise dt.DataError(f"{path}:{lineno}: {len(parts) - 2} features, "
                               f"the first row has {width - 2}")
        try:
            feats = [float(v) for v in parts[2:]]
            label = int(parts[1])
        except ValueError as e:
            raise dt.DataError(f"{path}:{lineno}: {e}") from e
        if not all(map(math.isfinite, feats)):
            raise dt.DataError(f"{path}:{lineno}: non-finite feature")
        if not -2 ** 63 <= label < 2 ** 63:
            raise dt.DataError(f"{path}:{lineno}: class label out of range")
        rows[parts[0]][0].append(feats)
        rows[parts[0]][1].append(label)
    out = []
    for domain in ("source", "target"):
        xs, ys = rows[domain]
        if not xs:
            raise dt.DataError(f"{path}: no {domain} rows")
        out.extend([np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.int64)])
    return tuple(out)


# Values that float() or int() accept in unusual spellings, values they
# reject, and values outside what a row may hold.
ODD_FEATURES = ["2_0", "１．５", " 3.5", "1e999", "nan", "-inf", "infinity",
                "abc", "", "0x1"]
ODD_LABELS = ["2_0", "３", " 4 ", "-9223372036854775808", "9223372036854775807",
              "9223372036854775808", "9" * 25, "x", "1.0", ""]


@st.composite
def blob_texts(draw):
    """Blob CSV text that is valid but for a few defects, most often none.

    A defective row gets one or two defects; rows may be padded with
    whitespace or separated by whitespace-only lines, and lines end in
    '\\n' or '\\r\\n'.
    """
    width = draw(st.integers(1, 3))
    n = draw(st.integers(0, 80))
    defects = draw(st.sampled_from([0, 0, 1, 2]))
    bad_rows = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=defects,
                             max_size=defects)) if n else []
    lines = []
    for i in range(n):
        domain = draw(st.sampled_from(["source", "target"]))
        label = str(draw(st.integers(-3, 9)))
        feats = [repr(draw(st.floats(-1e6, 1e6))) for _ in range(width)]
        for kind in (draw(st.lists(st.sampled_from(["domain", "label", "feature", "ragged"]),
                                   min_size=1, max_size=2)) if i in bad_rows else []):
            if kind == "domain":
                domain = draw(st.sampled_from(["src", "", "Source", "source "]))
            elif kind == "label":
                label = draw(st.sampled_from(ODD_LABELS))
            elif kind == "feature" and feats:
                feats[draw(st.integers(0, len(feats) - 1))] = draw(st.sampled_from(ODD_FEATURES))
            elif kind == "ragged":
                feats = feats[:-1] if draw(st.booleans()) else [*feats, "1.0"]
        pad = draw(st.sampled_from(["", "", "", " ", "\t"]))
        lines.append(pad + ",".join([domain, label, *feats]) + pad)
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t \t"])))
    header = draw(st.sampled_from([dt.EXPORT_HEADER] * 9 + [dt.EXPORT_HEADER + " "]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header, *lines]) + draw(st.sampled_from(["", newline]))


@given(blob_texts())
@settings(max_examples=200, deadline=None)
def test_load_blobs_matches_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("diff") / "blobs.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = reference_load_blobs(path)
    except dt.DataError as e:
        with pytest.raises(dt.DataError) as got:
            dt.load_blobs(path)
        assert str(got.value) == str(e)
        return
    for want, got in zip(expected, dt.load_blobs(path), strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_defect_after_many_good_rows_names_its_line(tmp_path):
    good = [f"{d},{i % 4},{i}.5,-1.25" for i, d in zip(range(5000), ["source", "target"] * 2500)]
    for bad, message in (("target,1,2.0", "1 features, the first row has 2"),
                         ("target,1,2.0,nan", "non-finite feature"),
                         ("target,x,2.0,y", "could not convert string to float: 'y'")):
        path = tmp_path / "late.csv"
        path.write_text("\n".join([dt.EXPORT_HEADER, *good, bad, *good]) + "\n")
        with pytest.raises(dt.DataError, match=rf"late\.csv:5002: {message}$"):
            dt.load_blobs(path)


def test_non_utf8_blobs_are_data_error(tmp_path):
    path = tmp_path / "bin.csv"
    path.write_bytes(HEADER + b"source,0,\xff\n")
    with pytest.raises(dt.DataError, match=r"bin\.csv: not UTF-8"):
        dt.load_blobs(path)


def test_label_beyond_int64_is_data_error(tmp_path):
    path = tmp_path / "big.csv"
    path.write_bytes(HEADER + b"source,0,1.0\ntarget," + b"9" * 25 + b",1.0\n")
    with pytest.raises(dt.DataError, match=r"big\.csv:3: class label out of range"):
        dt.load_blobs(path)


def test_idx_dims_product_beyond_int64_is_truncation(tmp_path):
    path = tmp_path / "huge.idx"
    path.write_bytes(struct.pack(">IIII", dt.IDX_IMAGE_MAGIC, 2 ** 32 - 1, 2 ** 32 - 1, 2 ** 31))
    with pytest.raises(dt.DataError, match="truncated payload"):
        dt._read_idx(path, dt.IDX_IMAGE_MAGIC, 3)


def reference_save_blobs(path, source_x, source_y, target_x, target_y) -> None:
    """The row-at-a-time writer that save_blobs replaced, kept as its reference."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(dt.EXPORT_HEADER + "\n")
        for domain, x, y in (("source", source_x, source_y), ("target", target_x, target_y)):
            for row, label in zip(x, y):
                feats = ",".join(repr(float(v)) for v in row)
                f.write(f"{domain},{int(label)},{feats}\n")


BLOCK = dt.SAVE_BLOCK_ROWS
INT64 = np.iinfo(np.int64)
# per feature dtype: a random scale's exponent range and values at its edges
FEATURE_KINDS = {
    np.float64: (300, [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1, 1e16]),
    np.float32: (35, [0.0, -0.0, 1e-45, -3.4028235e38, 0.1, 16777217.0]),
    np.int64: (0, [0, -1, INT64.min, INT64.max, 2 ** 53 + 1]),
}


@st.composite
def blob_arrays(draw):
    """Both domains' (features, labels): row counts at and across the
    writer's block edges, 1-4 columns, edge values at drawn places, float64,
    float32 or integer features and int64, float or Python int labels."""
    width = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(list(FEATURE_KINDS)))
    span, edges = FEATURE_KINDS[kind]
    out = []
    for _ in range(2):
        n = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 808]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        if kind is np.int64:
            x = rng.integers(INT64.min, INT64.max, (n, width), endpoint=True)
        else:
            x = (rng.standard_normal((n, width)) * 10.0 ** rng.integers(-span, span, (n, width))
                 ).astype(kind)
        y = rng.integers(-9, 10, n)
        for value in draw(st.lists(st.sampled_from(edges), max_size=6)) if n else []:
            x[rng.integers(n), rng.integers(width)] = value
        for value in draw(st.lists(st.sampled_from([INT64.min, INT64.max]),
                                   max_size=2)) if n else []:
            y[rng.integers(n)] = value
        labels = draw(st.sampled_from(["int64", "float", "list"]))
        if labels == "float":  # non-integral labels are truncated toward zero
            y = np.clip(y, -99, 99) + rng.choice([0.0, 0.5, 0.99], n)
        out.extend([x, y.tolist() if labels == "list" else y])
    return out


@given(blob_arrays())
@settings(max_examples=40, deadline=None)
def test_save_blobs_matches_row_reference(tmp_path_factory, arrays):
    tmp = tmp_path_factory.mktemp("save")
    sx, sy, tx, ty = arrays
    if not (len(sx) and len(tx)):  # load_blobs rejects a domain without rows
        with pytest.raises(ValueError, match=f"no {'target' if len(sx) else 'source'} rows"):
            dt.save_blobs(tmp / "got.csv", *arrays)
        assert not (tmp / "got.csv").exists()
        return
    dt.save_blobs(tmp / "got.csv", *arrays)
    reference_save_blobs(tmp / "want.csv", *arrays)
    assert (tmp / "got.csv").read_bytes() == (tmp / "want.csv").read_bytes()
    want = [np.asarray(sx, np.float64), np.asarray(sy).astype(np.int64),
            np.asarray(tx, np.float64), np.asarray(ty).astype(np.int64)]
    for w, got in zip(want, dt.load_blobs(tmp / "got.csv"), strict=True):
        assert got.dtype == w.dtype and got.shape == w.shape
        assert got.tobytes() == w.tobytes()


@pytest.mark.parametrize("source_x,source_y,message", [
    (np.ones((3, 2)), [0, 1], r"3 source rows but labels of shape \(2,\)"),
    (np.ones((2, 0)), [0, 1], "at least one column"),
    (np.ones(2), [0, 1], "at least one column"),
    (np.array([[1.0, np.nan], [0.0, 1.0]]), [0, 1], "source features must be finite"),
    (np.array([[1.0, 2.0], [-np.inf, 1.0]]), [0, 1], "source features must be finite"),
    (np.ones((2, 3)), [0, 1], "source rows have 3 features, target rows 2"),
    (np.ones((2, 2)), [0, 2 ** 63], "labels must be integers that fit int64"),
    (np.ones((2, 2)), [0.0, np.nan], "labels must be integers that fit int64"),
])
def test_save_blobs_refuses_what_load_blobs_rejects(tmp_path, source_x, source_y, message):
    path = tmp_path / "refused.csv"
    with pytest.raises(ValueError, match=message):
        dt.save_blobs(path, source_x, source_y, np.ones((1, 2)), [0])
    assert not path.exists()


@pytest.fixture
def blob_pool():
    sx, sy, tx, ty = dt.gen_shifted_blobs(dt.BlobShiftConfig())
    return dt.apply_roles(sx, sy, tx, ty, dt.digits_split()), (sx, sy, tx, ty)


class TestApplyRoles:
    def test_pool_sizes(self, blob_pool):
        pool, _ = blob_pool
        assert pool.source_known_x.shape == (800, 2)   # 4 classes x 200
        assert pool.source_unknown_x.shape == (600, 2)  # 3 classes x 200
        assert pool.target_x.shape == (1050, 2)         # 7 classes x 150

    def test_known_labels_reindexed(self, blob_pool):
        pool, _ = blob_pool
        assert set(pool.source_known_y.tolist()) == {0, 1, 2, 3}

    def test_target_roles_hidden_but_recoverable(self, blob_pool):
        pool, _ = blob_pool
        roles = pool.eval_target_roles()
        assert roles.shape == (1050,)
        assert (roles == dt.UNKNOWN_ROLE).sum() == 450  # 3 classes x 150
        assert set(roles.tolist()) == {-1, 0, 1, 2, 3}

    def test_eval_roles_returns_copy(self, blob_pool):
        pool, _ = blob_pool
        roles = pool.eval_target_roles()
        roles[:] = 99
        assert (pool.eval_target_roles() != 99).all()

    def test_reindex_by_position(self):
        rs = dt.RoleSplit(known=(5, 2))
        sx = np.zeros((4, 2))
        sy = [5, 2, 5, 2]
        tx = np.zeros((2, 2))
        ty = [2, 5]
        pool = dt.apply_roles(sx, sy, tx, ty, rs)
        np.testing.assert_array_equal(pool.source_known_y, [0, 1, 0, 1])
        np.testing.assert_array_equal(pool.eval_target_roles(), [1, 0])

    def test_missing_known_class(self):
        rs = dt.RoleSplit(known=(0, 1))
        with pytest.raises(dt.DataError):
            dt.apply_roles(np.zeros((2, 2)), [0, 0], np.zeros((2, 2)), [0, 1], rs)

    def test_missing_target_unknown_class(self):
        rs = dt.RoleSplit(known=(0,), target_unknown=(2,))
        with pytest.raises(dt.DataError, match="target-unknown class 2 missing from target"):
            dt.apply_roles(np.zeros((3, 2)), [0, 0, 2], np.zeros((2, 2)), [0, 0], rs)

    def test_width_mismatch(self):
        with pytest.raises(dt.DataError, match="shape"):
            dt.apply_roles(np.zeros((4, 3)), [0, 0, 1, 1], np.zeros((4, 2)), [0, 0, 1, 1],
                           dt.RoleSplit(known=(0, 1)))

    def test_source_target_unknowns_dropped(self, blob_pool):
        pool, (sx, sy, tx, ty) = blob_pool
        # source rows from target-unknown classes 7-9 are not in any pool
        assert len(pool.source_known_x) + len(pool.source_unknown_x) == (sy < 7).sum()
        # target rows from source-unknown classes 4-6 are dropped
        assert len(pool.target_x) == ((ty < 4) | (ty > 6)).sum()


def reference_apply_roles(source_y, target_y, rs):
    """The dict-lookup role assignment that apply_roles replaced: (source-known
    labels, target roles), or DataError."""
    source_y = np.asarray(source_y, dtype=np.int64)
    target_y = np.asarray(target_y, dtype=np.int64)
    src_classes, tgt_classes = set(source_y.tolist()), set(target_y.tolist())
    for c in rs.known:
        if c not in src_classes or c not in tgt_classes:
            raise dt.DataError(f"known class {c} missing from source or target")
    for c in rs.source_unknown:
        if c not in src_classes:
            raise dt.DataError(f"source-unknown class {c} missing from source")
    for c in rs.target_unknown:
        if c not in tgt_classes:
            raise dt.DataError(f"target-unknown class {c} missing from target")
    reindex = {c: i for i, c in enumerate(rs.known)}
    known_y = np.array([reindex[c] for c in source_y[np.isin(source_y, rs.known)]],
                       dtype=np.int64)
    kept_y = target_y[np.isin(target_y, rs.known) | np.isin(target_y, rs.target_unknown)]
    roles = np.array([reindex.get(c, dt.UNKNOWN_ROLE) for c in kept_y], dtype=np.int64)
    return known_y, roles


CLASS_IDS = [-2 ** 63, -7, -1, 0, 1, 2, 5, 9, 2 ** 40, 2 ** 63 - 1]


@st.composite
def labels_and_roles(draw):
    ids = draw(st.lists(st.sampled_from(CLASS_IDS), min_size=1, max_size=6, unique=True))
    owner = [draw(st.sampled_from(["known", "source_unknown", "target_unknown", None]))
             for _ in ids]
    owner[0] = "known"
    rs = dt.RoleSplit(**{role: tuple(c for c, o in zip(ids, owner) if o == role)
                         for role in ("known", "source_unknown", "target_unknown")})
    # Each domain holds its role ids, bar one dropped label at times, and
    # more labels, some of them in no role.
    extra = st.lists(st.sampled_from([*ids, 3]), max_size=30)
    source_y = draw(st.permutations([*rs.known, *rs.source_unknown, *draw(extra)]))
    target_y = draw(st.permutations([*rs.known, *rs.target_unknown, *draw(extra)]))
    drop = draw(st.sampled_from([0, 0, 0, 1]))
    if draw(st.sampled_from([False, False, False, True])):  # an id no label can have
        rs = dt.RoleSplit(known=(*rs.known, 2 ** 64), source_unknown=rs.source_unknown,
                          target_unknown=rs.target_unknown)
    return source_y[drop:], target_y, rs


@given(labels_and_roles())
@settings(max_examples=200, deadline=None)
def test_apply_roles_matches_dict_reference(case):
    source_y, target_y, rs = case
    sx, tx = np.zeros((len(source_y), 2)), np.zeros((len(target_y), 2))
    try:
        want_y, want_roles = reference_apply_roles(source_y, target_y, rs)
    except dt.DataError as e:
        with pytest.raises(dt.DataError) as got:
            dt.apply_roles(sx, source_y, tx, target_y, rs)
        assert str(got.value) == str(e)
        return
    pool = dt.apply_roles(sx, source_y, tx, target_y, rs)
    for got, want in ((pool.source_known_y, want_y), (pool.eval_target_roles(), want_roles)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestSampleBatchTriple:
    def test_shapes(self, blob_pool):
        pool, _ = blob_pool
        rng = np.random.default_rng(0)
        b = dt.sample_batch_triple(pool, 32, rng)
        assert b.source_x.shape == (32, 2)
        assert b.source_y.shape == (32,)
        assert b.unknown_x.shape == (32, 2)
        assert b.target_x.shape == (32, 2)
        assert b.target_aux_x is None

    def test_aux_batch(self, blob_pool):
        pool, _ = blob_pool
        b = dt.sample_batch_triple(pool, 16, np.random.default_rng(1), with_aux=True)
        assert b.target_aux_x.shape == (16, 2)

    def test_deterministic_per_rng_state(self, blob_pool):
        pool, _ = blob_pool
        a = dt.sample_batch_triple(pool, 8, np.random.default_rng(5))
        b = dt.sample_batch_triple(pool, 8, np.random.default_rng(5))
        np.testing.assert_array_equal(a.source_x, b.source_x)
        np.testing.assert_array_equal(a.target_x, b.target_x)

    def test_labels_track_rows(self, blob_pool):
        pool, _ = blob_pool
        b = dt.sample_batch_triple(pool, 64, np.random.default_rng(2))
        for row, label in zip(b.source_x, b.source_y):
            matches = np.where((pool.source_known_x == row).all(axis=1))[0]
            assert label in pool.source_known_y[matches]

    def test_empty_pool_rejected(self):
        pool = dt.DatasetPool(
            source_known_x=np.zeros((2, 2)), source_known_y=np.zeros(2, dtype=np.int64),
            source_unknown_x=np.zeros((0, 2)), target_x=np.zeros((2, 2)),
            _target_roles=np.zeros(2, dtype=np.int64))
        with pytest.raises(dt.DataError):
            dt.sample_batch_triple(pool, 4, np.random.default_rng(0))
