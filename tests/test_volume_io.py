"""NIfTI reading/writing, isotropic resampling, and lesion splitting."""

import gzip
import re
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from ctradiomics import errors, volume_io
from ctradiomics.errors import ClassMapError, GeometryError, LesionSizeError, MaskError, NiftiFormatError
from ctradiomics.errors import UnsupportedDataTypeError
from ctradiomics.volume_io import (
    LesionMask,
    LesionRegion,
    VoxelVolume,
    extract_lesions,
    read_mask,
    read_volume,
    resample_isotropic,
    write_nifti,
)

import oracles


def make_nifti_bytes(
    dims=(2, 2, 2),
    pixdim=(1.0, 1.0, 1.0),
    datatype=4,
    payload=None,
    scl_slope=1.0,
    scl_inter=0.0,
    magic=b"n+1\x00",
    vox_offset=352.0,
    byteorder="<",
    truncate=None,
):
    dtypes = {2: np.uint8, 4: np.int16, 8: np.int32, 16: np.float32, 64: np.float64}
    np_dtype = np.dtype(dtypes[datatype]).newbyteorder(byteorder)
    hdr = bytearray(352)
    struct.pack_into(byteorder + "i", hdr, 0, 348)
    struct.pack_into(byteorder + "8h", hdr, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into(byteorder + "h", hdr, 70, datatype)
    struct.pack_into(byteorder + "h", hdr, 72, np_dtype.itemsize * 8)
    struct.pack_into(byteorder + "8f", hdr, 76, 0.0, pixdim[0], pixdim[1], pixdim[2], 0, 0, 0, 0)
    struct.pack_into(byteorder + "f", hdr, 108, vox_offset)
    struct.pack_into(byteorder + "f", hdr, 112, scl_slope)
    struct.pack_into(byteorder + "f", hdr, 116, scl_inter)
    hdr[344:348] = magic
    if payload is None:
        payload = np.arange(np.prod(dims))
    body = np.asarray(payload, dtype=np_dtype).tobytes()
    blob = bytes(hdr) + body
    if truncate is not None:
        blob = blob[:truncate]
    return blob


def write_blob(tmp_path, blob, name="img.nii"):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


class TestReadVolume:
    def test_int16_identity_rescale(self, tmp_path):
        path = write_blob(tmp_path, make_nifti_bytes())
        vol = read_volume(path)
        assert vol.dims == (2, 2, 2)
        # payload is Fortran ordered: x fastest
        assert vol.data[0, 0, 0] == 0
        assert vol.data[1, 0, 0] == 1
        assert vol.data[0, 1, 0] == 2
        assert vol.data[1, 1, 1] == 7
        assert sorted(vol.data.ravel()) == list(range(8))

    def test_slope_intercept_applied(self, tmp_path):
        path = write_blob(tmp_path, make_nifti_bytes(scl_slope=2.0, scl_inter=-1.0))
        vol = read_volume(path)
        assert sorted(vol.data.ravel()) == [2 * v - 1 for v in range(8)]

    def test_slope_zero_treated_as_one(self, tmp_path):
        path = write_blob(tmp_path, make_nifti_bytes(scl_slope=0.0, scl_inter=0.0))
        vol = read_volume(path)
        assert sorted(vol.data.ravel()) == list(range(8))

    def test_big_endian_header(self, tmp_path):
        path = write_blob(tmp_path, make_nifti_bytes(byteorder=">"))
        vol = read_volume(path)
        assert sorted(vol.data.ravel()) == list(range(8))

    def test_truncated_payload_is_format_error(self, tmp_path, monkeypatch):
        def no_map(*args, **kwargs):
            raise AssertionError("a truncated payload was mapped")

        monkeypatch.setattr(np, "memmap", no_map)  # the length is checked before anything is mapped
        path = write_blob(tmp_path, make_nifti_bytes(truncate=352 + 7))
        for reader in (read_volume, lambda p: read_mask(p, {})):
            with pytest.raises(NiftiFormatError, match="truncated"):
                reader(path)

    # 352.9 names no byte: the reader must not truncate it to 352
    @pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf, 100.0, 352.9])
    def test_bad_vox_offset_is_format_error_naming_the_path(self, tmp_path, offset):
        path = write_blob(tmp_path, make_nifti_bytes(vox_offset=offset))
        for reader in (read_volume, lambda p: read_mask(p, {})):
            with pytest.raises(NiftiFormatError, match="vox_offset") as caught:
                reader(path)
            assert str(path) in str(caught.value)

    @pytest.mark.parametrize("datatype", [16, 64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_payload_is_format_error(self, tmp_path, monkeypatch, datatype, bad):
        # read_volume itself raises; its check runs one slab at a time over the
        # map, and with one z slice per slab only the last of five holds the bad voxel
        import ctradiomics.volume_io as vio

        monkeypatch.setattr(vio, "_SLAB_VOXELS", 12)
        payload = np.arange(60.0)
        payload[-1] = bad
        path = write_blob(tmp_path, make_nifti_bytes(dims=(3, 4, 5), datatype=datatype, payload=payload))
        with pytest.raises(NiftiFormatError, match="non-finite"):
            read_volume(path)
        payload[-1] = 0.0
        path = write_blob(tmp_path, make_nifti_bytes(dims=(3, 4, 5), datatype=datatype, payload=payload))
        assert read_volume(path).data.tobytes(order="F") == payload.tobytes()

    @pytest.mark.parametrize("bad_index", [(1 << 20) - 1, -1], ids=["first_chunk_end", "file_end"])
    def test_non_finite_voxel_at_a_chunk_end_fails_the_read(self, tmp_path, bad_index):
        # float payloads stream from the file in chunks of 2^20 voxels; the
        # last voxel of the first chunk and of the file are each checked
        import ctradiomics.volume_io as vio

        dims = (128, 128, 65)
        assert vio._SLAB_VOXELS == 1 << 20 < np.prod(dims)
        flat = np.zeros(np.prod(dims), dtype=np.float32)
        flat[bad_index] = np.nan
        write_nifti(tmp_path / "v.nii", flat.reshape(dims, order="F"), (1.0, 1.0, 1.0))
        with pytest.raises(NiftiFormatError, match="non-finite"):
            read_volume(tmp_path / "v.nii")

    def test_float64_rescale_overflow_fails_the_read(self, tmp_path, monkeypatch):
        import ctradiomics.volume_io as vio

        monkeypatch.setattr(vio, "_SLAB_VOXELS", 4)
        payload = np.zeros(8)
        payload[-1] = 1e308  # finite on disk, inf once multiplied by the slope
        path = write_blob(tmp_path, make_nifti_bytes(datatype=64, payload=payload, scl_slope=10.0))
        with pytest.raises(NiftiFormatError, match="non-finite"):
            read_volume(path)

    def test_bad_magic_is_format_error(self, tmp_path):
        path = write_blob(tmp_path, make_nifti_bytes(magic=b"abc\x00"))
        with pytest.raises(NiftiFormatError, match="magic"):
            read_volume(path)

    def test_bad_sizeof_hdr_is_format_error(self, tmp_path):
        blob = bytearray(make_nifti_bytes())
        struct.pack_into("<i", blob, 0, 999)
        with pytest.raises(NiftiFormatError, match="348"):
            read_volume(write_blob(tmp_path, bytes(blob)))

    def test_unsupported_datatype_names_the_code(self, tmp_path):
        blob = bytearray(make_nifti_bytes())
        struct.pack_into("<h", blob, 70, 128)  # RGB24, unsupported
        struct.pack_into("<h", blob, 72, 24)
        with pytest.raises(UnsupportedDataTypeError, match="128"):
            read_volume(write_blob(tmp_path, bytes(blob)))

    def test_gzip_file_is_format_error_naming_the_cause(self, tmp_path):
        path = tmp_path / "v.nii"
        write_nifti(path, np.zeros((2, 2, 2), dtype=np.uint8), (1.0, 1.0, 1.0))
        gz = tmp_path / "v.nii.gz"
        gz.write_bytes(gzip.compress(path.read_bytes()))
        assert gz.stat().st_size < 348  # once read as "too short for a NIfTI-1 header"
        for reader in (read_volume, lambda p: read_mask(p, {})):
            with pytest.raises(NiftiFormatError, match=r"v\.nii\.gz: gzip-compressed NIfTI .* decompress it"):
                reader(gz)

    def test_short_file_is_format_error(self, tmp_path):
        with pytest.raises(NiftiFormatError, match="too short"):
            read_volume(write_blob(tmp_path, b"x" * 100))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_qoffset_is_format_error_naming_the_path(self, tmp_path, bad):
        path = tmp_path / "img.nii"
        write_nifti(path, np.zeros((2, 2, 2), dtype=np.uint8), (1.0, 1.0, 1.0))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<3f", blob, 268, 0.0, bad, 0.0)  # qoffset_x, _y, _z
        path.write_bytes(bytes(blob))
        for reader in (read_volume, lambda p: read_mask(p, {})):
            with pytest.raises(NiftiFormatError, match="origin must be finite") as caught:
                reader(path)
            assert str(caught.value).startswith(f"{path}: pixdim or qoffset: ")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_pixdim_is_format_error_naming_the_path(self, tmp_path, bad):
        path = write_blob(tmp_path, make_nifti_bytes(pixdim=(1.0, bad, 1.0)))
        for reader in (read_volume, lambda p: read_mask(p, {})):
            with pytest.raises(NiftiFormatError, match="spacing must be positive and finite") as caught:
                reader(path)
            assert str(path) in str(caught.value)

    def test_float64_payload(self, tmp_path):
        payload = np.linspace(-3.5, 3.5, 8)
        path = write_blob(tmp_path, make_nifti_bytes(datatype=64, payload=payload))
        vol = read_volume(path)
        assert np.allclose(sorted(vol.data.ravel()), payload)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [(np.nan, 0.0), (1.0, np.inf), (np.inf, 0.0)])
    def test_non_finite_rescale_of_integers_is_format_error(self, tmp_path, scale):
        slope, inter = scale
        path = write_blob(tmp_path, make_nifti_bytes(scl_slope=slope, scl_inter=inter))
        with pytest.raises(NiftiFormatError, match="non-finite"):
            read_volume(path)

    def test_extreme_finite_rescale_of_integers_stays_finite(self, tmp_path):
        # the largest float32 slope times the widest int32 value fits float64
        big = float(np.finfo(np.float32).max)
        payload = [np.iinfo(np.int32).min, np.iinfo(np.int32).max] * 4
        path = write_blob(
            tmp_path, make_nifti_bytes(datatype=8, payload=payload, scl_slope=big, scl_inter=big)
        )
        vol = read_volume(path)
        assert np.isfinite(vol.data).all()
        assert vol.data.max() == np.iinfo(np.int32).max * big + big


class TestReadMask:
    def test_labels_and_class_map(self, tmp_path):
        payload = [0, 1, 0, 1, 0, 0, 1, 0]
        path = write_blob(tmp_path, make_nifti_bytes(payload=payload, datatype=2))
        mask = read_mask(path, {1: 2})
        assert mask.class_of_label == {1: 2}
        assert (mask.labels == 1).sum() == 3

    def test_two_labels(self, tmp_path):
        payload = [0, 1, 2, 1, 0, 2, 0, 0]
        path = write_blob(tmp_path, make_nifti_bytes(payload=payload, datatype=2))
        mask = read_mask(path, {1: 1, 2: 3})
        assert mask.class_of_label == {1: 1, 2: 3}

    def test_extra_map_entries_are_ignored(self, tmp_path):
        payload = [0, 1, 0, 0, 0, 0, 0, 0]
        path = write_blob(tmp_path, make_nifti_bytes(payload=payload, datatype=2))
        mask = read_mask(path, {1: 1, 9: 3})
        assert mask.class_of_label == {1: 1}

    def test_missing_label_is_configuration_error(self, tmp_path):
        payload = [0, 5, 0, 0, 0, 0, 0, 0]
        path = write_blob(tmp_path, make_nifti_bytes(payload=payload, datatype=2))
        with pytest.raises(ClassMapError, match=r"\[5\]"):
            read_mask(path, {1: 1})

    def test_non_integer_values_are_mask_error(self, tmp_path):
        payload = np.array([0, 0.5, 1, 0, 0, 0, 0, 0])
        path = write_blob(tmp_path, make_nifti_bytes(payload=payload, datatype=16))
        with pytest.raises(MaskError, match="non-integer"):
            read_mask(path, {1: 1})

    @pytest.mark.parametrize(
        "datatype, dtype, top", [(2, np.uint8, 255), (4, np.int16, 32767), (8, np.int32, 2**31 - 1)]
    )
    @pytest.mark.parametrize("byteorder", ["<", ">"])
    def test_integer_masks_skip_the_float_round_trip(self, tmp_path, monkeypatch, datatype, dtype, top, byteorder):
        payload = [0, 1, top, 1, 0, top, 0, 0]
        path = write_blob(tmp_path, make_nifti_bytes(payload=payload, datatype=datatype, byteorder=byteorder))

        def no_rint(*args, **kwargs):
            raise AssertionError("an integer mask went through np.rint")

        monkeypatch.setattr(np, "rint", no_rint)
        mask = read_mask(path, {1: 1, top: 3, 9: 2})
        assert mask.labels.dtype == np.dtype(dtype)  # the file's type, native byte order
        assert mask.labels.flags.writeable
        assert np.array_equal(mask.labels, np.reshape(payload, (2, 2, 2), order="F"))
        assert mask.class_of_label == {1: 1, top: 3}
        assert mask.spacing == (1.0, 1.0, 1.0)
        assert mask.origin == (0.0, 0.0, 0.0)

    def test_rescaled_mask_with_integer_values_reads(self, tmp_path):
        payload = [0, 1, 0, 2, 0, 0, 0, 0]
        path = write_blob(tmp_path, make_nifti_bytes(payload=payload, datatype=4, scl_slope=2.0))
        mask = read_mask(path, {2: 1, 4: 3})
        assert np.array_equal(mask.labels, 2 * np.reshape(payload, (2, 2, 2), order="F"))
        assert mask.labels.dtype == np.uint8  # the smallest type that holds the labels

    @pytest.mark.parametrize("slope, inter", [(0.5, 0.0), (1.0, 0.25)])
    def test_rescaled_non_integer_values_are_mask_error(self, tmp_path, slope, inter):
        payload = [0, 1, 0, 0, 0, 0, 0, 0]
        path = write_blob(tmp_path, make_nifti_bytes(payload=payload, datatype=4, scl_slope=slope, scl_inter=inter))
        with pytest.raises(MaskError, match="non-integer"):
            read_mask(path, {1: 1})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value, slope", [(1e308, 10.0), (3e9, 1.0)], ids=["overflow", "beyond_int32"])
    def test_labels_outside_int32_are_mask_error(self, tmp_path, value, slope):
        payload = np.zeros(8)
        payload[1] = value
        path = write_blob(tmp_path, make_nifti_bytes(payload=payload, datatype=64, scl_slope=slope))
        with pytest.raises(MaskError, match=r"int32 label range \[-2147483648, 2147483647\]"):
            read_mask(path, {1: 1})

    @pytest.mark.parametrize("datatype", [4, 8, 16])
    def test_negative_labels_are_mask_error(self, tmp_path, datatype):
        payload = [0, 1, 0, -3, 0, 0, 0, 0]
        path = write_blob(tmp_path, make_nifti_bytes(payload=payload, datatype=datatype))
        with pytest.raises(MaskError, match="negative"):
            read_mask(path, {1: 1, -3: 2})

    def test_negative_labels_rejected_by_lesion_mask(self):
        labels = np.zeros((2, 2, 2), dtype=np.int16)
        labels[1, 0, 1] = -1
        with pytest.raises(MaskError, match="non-negative"):
            LesionMask(labels=labels, spacing=(1, 1, 1), class_of_label={-1: 1})

    @pytest.mark.parametrize("datatype", [4, 8])
    def test_missing_label_of_wide_mask_is_configuration_error(self, tmp_path, datatype):
        payload = [0, 7, 0, 300, 0, 0, 0, 0]
        path = write_blob(tmp_path, make_nifti_bytes(payload=payload, datatype=datatype))
        with pytest.raises(ClassMapError, match=r"\[300\]"):
            read_mask(path, {7: 1})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [(np.nan, 0.0), (1.0, -np.inf), (np.inf, 0.0)])
    def test_non_finite_rescale_is_format_error(self, tmp_path, scale):
        slope, inter = scale
        payload = [0, 1, 0, 0, 0, 0, 0, 0]
        path = write_blob(tmp_path, make_nifti_bytes(payload=payload, datatype=4, scl_slope=slope, scl_inter=inter))
        with pytest.raises(NiftiFormatError, match="non-finite"):
            read_mask(path, {1: 1})

    def test_one_label_scan_per_mask(self, tmp_path, monkeypatch):
        # read_mask hands its label boxes to the LesionMask, and extract_lesions
        # reads them from there: one whole-mask pass per scan
        import ctradiomics.volume_io as vio

        labels = np.zeros((12, 10, 6), dtype=np.uint8)
        labels[1:4, 2:5, 1:3] = 1
        labels[7:11, 5:9, 2:5] = 2
        path = tmp_path / "m.nii"
        write_nifti(path, labels, spacing=(0.7, 0.7, 2.5))
        vol = VoxelVolume(data=np.zeros(labels.shape), spacing=(0.7, 0.7, 2.5))
        calls = []
        real = vio._label_boxes
        monkeypatch.setattr(vio, "_label_boxes", lambda a: calls.append(a.shape) or real(a))
        mask = read_mask(path, {1: 1, 2: 3})
        regions = extract_lesions(vol, mask, 1.0)
        assert calls == [labels.shape]
        assert [(r.label, cls) for r, cls in regions] == [(1, 1), (2, 3)]
        assert mask.boxes.keys() == real(labels).keys()

    def test_largest_int32_label_extracts_cheaply(self, tmp_path):
        top = 2**31 - 1
        labels = np.zeros((24, 24, 10), dtype=np.int32)
        labels[5:9, 10:14, 3:6] = top
        path = tmp_path / "m.nii"
        write_nifti(path, labels, spacing=(0.8, 0.8, 2.0))
        vol = VoxelVolume(data=np.zeros(labels.shape), spacing=(0.8, 0.8, 2.0))
        tracemalloc.start()
        try:
            mask = read_mask(path, {top: 2})
            regions = extract_lesions(vol, mask, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [(r.label, cls) for r, cls in regions] == [(top, 2)]
        assert peak < 50 * 2**20

    def test_float_mask_streams_into_its_labels(self, tmp_path, monkeypatch):
        # a float mask becomes uint8 one chunk at a time: the peak is the
        # labels, the label pass's byte per voxel and a few float64 chunks,
        # not whole-mask float64 or int32 copies
        import ctradiomics.volume_io as vio

        monkeypatch.setattr(vio, "_SLAB_VOXELS", 1 << 16)
        dims = (128, 128, 32)
        labels = np.zeros(dims, dtype=np.float32)
        labels[10:20, 30:40, 5:9] = 1
        labels[60:70, 60:80, 10:20] = 2
        write_nifti(tmp_path / "m.nii", labels, (0.7, 0.7, 2.5))
        tracemalloc.start()
        try:
            mask = read_mask(tmp_path / "m.nii", {1: 1, 2: 3})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mask.labels.dtype == np.uint8
        assert np.array_equal(mask.labels, labels)
        bound = labels.size + labels.size + 4 * 8 * vio._SLAB_VOXELS + 2**16
        assert peak < bound

    @pytest.mark.parametrize(
        "label, dtype", [(255, np.uint8), (256, np.uint16), (70_000, np.uint32), (2**31 - 1, np.uint32)]
    )
    def test_float_mask_widens_when_a_chunk_needs_it(self, tmp_path, monkeypatch, label, dtype):
        # the label that needs a wider type sits in the last chunk: the
        # chunks already read must survive the widening
        import ctradiomics.volume_io as vio

        monkeypatch.setattr(vio, "_SLAB_VOXELS", 1 << 10)
        labels = np.zeros((16, 16, 12), dtype=np.float64)
        labels[1:3, 1:3, 0] = 7
        labels[4:6, 9:12, 5] = 200
        labels[10:12, 10:12, 11] = label
        write_nifti(tmp_path / "m.nii", labels, (1.0, 1.0, 1.0))
        mask = read_mask(tmp_path / "m.nii", {7: 1, 200: 2, label: 3})
        assert mask.labels.dtype == np.dtype(dtype)
        assert np.array_equal(mask.labels, labels)
        assert mask.class_of_label == {7: 1, 200: 2, label: 3}

    def test_negative_label_in_a_later_chunk_is_mask_error(self, tmp_path, monkeypatch):
        import ctradiomics.volume_io as vio

        monkeypatch.setattr(vio, "_SLAB_VOXELS", 1 << 10)
        labels = np.zeros((16, 16, 12), dtype=np.float32)
        labels[1:3, 1:3, 0] = 1
        labels[10, 10, 11] = -2
        write_nifti(tmp_path / "m.nii", labels, (1.0, 1.0, 1.0))
        with pytest.raises(MaskError, match="non-negative"):
            read_mask(tmp_path / "m.nii", {1: 1, -2: 2})


# every exception type that ctradiomics.errors defines
_TYPED_ERRORS = tuple(v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception))
_ITEMSIZE = {2: 1, 4: 2, 8: 4, 16: 4, 64: 8}


def _mostly(draw, common, rare):
    """A draw from the strategy ``common`` nine times in ten, else from ``rare``."""
    return draw(rare if draw(hs.integers(0, 9)) == 0 else common)


@hs.composite
def _nifti_files(draw):
    """A single-file NIfTI-1 blob with fuzzed geometry, type, offset and
    rescale fields, in either byte order, possibly cut short.  Each field is
    usually valid, so that most blobs reach the payload checks."""
    order = draw(hs.sampled_from("<>"))
    ndim = _mostly(draw, hs.just(3), hs.sampled_from([4, 7, 2, 8, 0, -1]))
    dims = [_mostly(draw, hs.integers(1, 5), hs.sampled_from([0, -1, 32767])) for _ in range(3)]
    higher = [_mostly(draw, hs.just(1), hs.sampled_from([0, 2, -1])) for _ in range(4)]
    pixdim = [_mostly(draw, hs.sampled_from([1.0, 0.7, 2.5]), hs.floats(width=32)) for _ in range(3)]
    datatype = _mostly(draw, hs.sampled_from([2, 4, 8, 16, 64]), hs.sampled_from([0, 1, 128, 256, 512, 1536]))
    bitpix = _mostly(draw, hs.just(8 * _ITEMSIZE.get(datatype, 1)), hs.integers(-(2**15), 2**15 - 1))
    vox_offset = _mostly(
        draw, hs.sampled_from([352.0, 348.0, 360.0, 357.5]), hs.sampled_from([347.0, 0.0, 1e10]) | hs.floats(width=32)
    )
    slope = _mostly(draw, hs.sampled_from([1.0, 0.0, 2.0, -0.5]), hs.floats(width=32))
    inter = _mostly(draw, hs.sampled_from([0.0, -1024.0]), hs.floats(width=32))

    hdr = bytearray(352)
    struct.pack_into(order + "i", hdr, 0, 348)
    struct.pack_into(order + "8h", hdr, 40, ndim, *dims, *higher)
    struct.pack_into(order + "hh", hdr, 70, datatype, bitpix)
    struct.pack_into(order + "8f", hdr, 76, 0.0, *pixdim, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(order + "3f", hdr, 108, vox_offset, slope, inter)
    hdr[344:348] = b"n+1\x00"
    gap = int(vox_offset) - 352 if 352 <= vox_offset < 400 else 0
    n = int(np.prod(dims)) if all(0 < d <= 5 for d in dims) else draw(hs.integers(0, 8))
    # half the payloads hold only labels of the class map below (0 and 1..3)
    tame = draw(hs.booleans())
    if datatype in (16, 64):
        dtype = np.float32 if datatype == 16 else np.float64
        values = hs.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0]) if tame else hs.floats(width=8 * _ITEMSIZE[datatype])
    else:
        dtype = {4: np.int16, 8: np.int32}.get(datatype, np.uint8)
        info = np.iinfo(dtype)
        values = hs.sampled_from([0, 0, 1, 2, 3]) if tame else hs.integers(int(info.min), int(info.max))
    payload = np.array(draw(hs.lists(values, min_size=n, max_size=n)), dtype=np.dtype(dtype).newbyteorder(order))
    blob = bytes(hdr) + bytes(gap) + payload.tobytes()
    return _mostly(draw, hs.just(blob), hs.integers(0, len(blob)).map(lambda cut: blob[:cut]))


def _signalling_nan_payload(dtype):
    """Seven zeros and a signalling NaN, on which a cast, a product or rint
    raises numpy's 'invalid' flag."""
    bits = np.zeros(8, dtype=f"u{np.dtype(dtype).itemsize}")
    bits[-1] = 0x7FF4 << 48 if np.dtype(dtype).itemsize == 8 else 0x7FA00000
    return bits.view(dtype)


class TestFuzzedFiles:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(_nifti_files())
    @example(make_nifti_bytes(datatype=64, payload=_signalling_nan_payload(np.float64)))
    @example(make_nifti_bytes(datatype=64, payload=_signalling_nan_payload(np.float64), scl_slope=3.0))
    @example(make_nifti_bytes(datatype=16, payload=_signalling_nan_payload(np.float32)))
    @example(make_nifti_bytes(datatype=64, payload=[0.0] * 7 + [np.inf], byteorder=">"))
    @example(make_nifti_bytes(datatype=16, payload=[1, 2, 3, 0, 0, 0, 0, np.nan], scl_slope=3.0))
    @example(make_nifti_bytes(datatype=64, payload=[1e308] * 8, scl_slope=-10.0, scl_inter=5.0))
    @example(make_nifti_bytes(datatype=8, payload=[-(2**31)] * 8, scl_slope=float(np.finfo(np.float32).max)))
    @example(make_nifti_bytes(dims=(3, 1, 2), datatype=2, payload=[0, 1, 2, 3, 0, 1], vox_offset=352.5))
    def test_only_typed_errors_escape_the_readers(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_blob(Path(tmp), blob)
            try:
                vol = read_volume(path)
            except _TYPED_ERRORS:
                pass
            else:
                assert np.isfinite(vol.data).all()
                del vol
            try:
                mask = read_mask(path, {1: 1, 2: 2, 3: 3})
            except _TYPED_ERRORS:
                pass
            else:
                assert np.issubdtype(mask.labels.dtype, np.integer)
                assert set(mask.boxes) <= {1, 2, 3}
                del mask  # release the map before the directory goes


class TestWriteNifti:
    def test_round_trip_volume(self, tmp_path):
        data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        path = tmp_path / "v.nii"
        write_nifti(path, data, spacing=(0.5, 1.0, 2.0), origin=(1.0, 2.0, 3.0))
        vol = read_volume(path)
        assert np.array_equal(vol.data, data)
        assert vol.spacing == (0.5, 1.0, 2.0)
        assert vol.origin == (1.0, 2.0, 3.0)

    def test_round_trip_mask(self, tmp_path):
        labels = np.zeros((3, 3, 3), dtype=np.uint8)
        labels[1, 1, 1] = 1
        path = tmp_path / "m.nii"
        write_nifti(path, labels, spacing=(1, 1, 1))
        mask = read_mask(path, {1: 1})
        assert np.array_equal(mask.labels, labels)

    def test_memory_order_does_not_change_the_bytes(self, tmp_path):
        # read_volume's payload is F-ordered; a C-ordered copy and a strided
        # view of the same values write the same file, also where y spans
        # several 16-row slabs and ends in a partial one
        for shape in ((3, 4, 5), (5, 37, 21)):
            data = np.arange(np.prod(shape), dtype=np.int16).reshape(shape)
            every_other = np.zeros((2 * shape[0], *shape[1:]), dtype=np.int16)
            every_other[::2] = data
            layouts = {"c": data, "f": np.asfortranarray(data), "strided": every_other[::2]}
            for name, array in layouts.items():
                write_nifti(tmp_path / f"{name}.nii", array, (1.0, 1.0, 1.0))
            written = {path.read_bytes() for path in tmp_path.glob("*.nii")}
            assert len(written) == 1 and np.array_equal(read_volume(tmp_path / "f.nii").payload, data)

    @pytest.mark.parametrize(
        "spacing, origin, message",
        [
            ((0.0, 1.0, 1.0), (0.0, 0.0, 0.0), "spacing"),
            ((np.inf, 1.0, 1.0), (0.0, 0.0, 0.0), "spacing"),
            ((1.0, 1.0, 1.0), (0.0, np.nan, 0.0), "origin"),
        ],
    )
    def test_geometry_read_volume_refuses_is_not_written(self, tmp_path, spacing, origin, message):
        path = tmp_path / "v.nii"
        with pytest.raises(ValueError, match=f"{message} must be"):
            write_nifti(path, np.zeros((2, 2, 2), dtype=np.int16), spacing, origin)
        assert not path.exists()

    def test_an_axis_longer_than_the_int16_header_field_is_not_written(self, tmp_path):
        path = tmp_path / "v.nii"
        with pytest.raises(ValueError, match=r"^axis x has 40000 voxels; NIfTI-1 stores at most 32767 per axis$"):
            write_nifti(path, np.zeros((40000, 1, 1), np.uint8), (1, 1, 1))
        assert not path.exists()
        write_nifti(path, np.zeros((1, 1, 32767), np.uint8), (1, 1, 1))
        assert read_volume(path).dims == (1, 1, 32767)


def _pair(data, labels, spacing, class_of_label):
    vol = VoxelVolume(data=data, spacing=spacing)
    mask = LesionMask(labels=labels, spacing=spacing, class_of_label=class_of_label)
    return vol, mask


class TestGeometry:
    """VoxelVolume, LesionMask and LesionRegion check spacing and origin by one rule."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_spacing_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            VoxelVolume(data=np.zeros((2, 2, 2)), spacing=(1.0, bad, 1.0))
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            LesionMask(labels=np.zeros((2, 2, 2), dtype=np.int32), spacing=(1.0, 1.0, bad))
        with pytest.raises(ValueError, match="spacing must be positive and finite"):
            LesionRegion(coordinates=[[0, 0, 0]], intensities=[1.0], spacing=(bad, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_origin_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="origin must be finite"):
            VoxelVolume(data=np.zeros((2, 2, 2)), spacing=(1, 1, 1), origin=(bad, 0.0, 0.0))
        with pytest.raises(ValueError, match="origin must be finite"):
            LesionMask(labels=np.zeros((2, 2, 2), dtype=np.int32), spacing=(1, 1, 1), origin=(0.0, 0.0, bad))

    def test_int64_data_is_held_as_float64(self):
        # NIfTI-1 stores no int64, so the payload is the same values widened
        data = np.arange(-4, 4, dtype=np.int64).reshape(2, 2, 2) * 10**6
        vol = VoxelVolume(data=data, spacing=(1, 1, 1))
        assert vol.payload.dtype == np.float64
        assert np.array_equal(vol.payload, data)
        assert np.array_equal(vol.data, data)

    def test_geometry_is_held_as_floats(self):
        vol = VoxelVolume(data=np.zeros((2, 2, 2)), spacing=(1, 2, 3), origin=np.array([4, 5, 6]))
        mask = LesionMask(labels=np.zeros((2, 2, 2), dtype=np.int32), spacing=[1, 2, 3], origin=(4, 5, 6))
        region = LesionRegion(coordinates=[[0, 0, 0]], intensities=[1.0], spacing=np.array([1, 2, 3]))
        for geometry in (vol.spacing, vol.origin, mask.spacing, mask.origin, region.spacing):
            assert type(geometry) is tuple and all(type(v) is float for v in geometry)


class TestResample:
    def test_identity_is_bitwise(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 5, 6))
        labels = (rng.random((4, 5, 6)) < 0.3).astype(np.int32)
        vol, mask = _pair(data, labels, (1.0, 1.0, 1.0), {1: 1})
        out_vol, out_mask = resample_isotropic(vol, mask, 1.0)
        assert np.array_equal(out_vol.data, data)
        assert np.array_equal(out_mask.labels, labels)

    def test_identity_at_non_unit_spacing(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(3, 3, 3))
        labels = np.zeros((3, 3, 3), dtype=np.int32)
        labels[1, 1, 1] = 1
        vol, mask = _pair(data, labels, (0.1, 0.1, 0.1), {1: 1})
        out_vol, out_mask = resample_isotropic(vol, mask, 0.1)
        assert np.array_equal(out_vol.data, data)
        assert np.array_equal(out_mask.labels, labels)

    def test_target_equal_to_the_spacing_returns_the_payload_bitwise(self, tmp_path):
        # every frac is 0, so only the lower corner is gathered: the HU values
        # of the memory-mapped payload come back unchanged, in whole and in ROIs
        rng = np.random.default_rng(2)
        payload = rng.integers(-1000, 1000, size=(7, 6, 5)).astype(np.int16)
        labels = np.zeros((7, 6, 5), dtype=np.uint8)
        labels[1:4, 2:5, 1:3] = 1
        labels[5:7, 0:2, 3:5] = 2
        write_nifti(tmp_path / "img.nii", payload, (0.75, 0.75, 0.75))  # exact in the float32 pixdim
        write_nifti(tmp_path / "mask.nii", labels, (0.75, 0.75, 0.75))
        vol = read_volume(tmp_path / "img.nii")
        mask = read_mask(tmp_path / "mask.nii", {1: 1, 2: 2})
        hu = payload.astype(np.float64)
        out_vol, out_mask = resample_isotropic(vol, mask, 0.75)
        assert out_vol.data.tobytes() == hu.tobytes()
        assert np.array_equal(out_mask.labels, labels)
        for region, _ in extract_lesions(vol, mask, 0.75):
            assert region.intensities.tobytes() == hu[tuple(region.coordinates.T)].tobytes()

    def test_constant_volume_doubles_dims(self):
        data = np.full((3, 3, 3), 7.0)
        labels = np.ones((3, 3, 3), dtype=np.int32)
        vol, mask = _pair(data, labels, (2.0, 2.0, 2.0), {1: 1})
        out_vol, out_mask = resample_isotropic(vol, mask, 1.0)
        assert out_vol.dims == (6, 6, 6)
        assert np.all(out_vol.data == 7.0)
        assert np.all(out_mask.labels == 1)

    def test_ramp_interpolation_hand_values(self):
        data = np.zeros((3, 1, 1))
        data[:, 0, 0] = [0.0, 10.0, 20.0]
        labels = np.ones((3, 1, 1), dtype=np.int32)
        vol, mask = _pair(data, labels, (2.0, 2.0, 2.0), {1: 1})
        out_vol, _ = resample_isotropic(vol, mask, 1.0)
        # samples at input indices 0, .5, 1, 1.5, 2, 2.5 (clamped to 2)
        assert out_vol.data[:, 0, 0] == pytest.approx([0.0, 5.0, 10.0, 15.0, 20.0, 20.0])

    def test_matches_literal_oracle(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(4, 3, 5))
        labels = rng.integers(0, 2, size=(4, 3, 5)).astype(np.int32)
        spacing = (1.3, 0.8, 2.1)
        vol, mask = _pair(data, labels, spacing, {1: 1})
        out_vol, out_mask = resample_isotropic(vol, mask, 1.0)
        expect_data = oracles.trilinear_oracle(data, spacing, 1.0)
        expect_labels = oracles.nearest_oracle(labels, spacing, 1.0)
        assert out_vol.data == pytest.approx(expect_data, abs=1e-12)
        assert np.array_equal(out_mask.labels, expect_labels)

    def test_interpolated_values_within_input_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            data = rng.normal(size=(4, 4, 4))
            labels = np.ones((4, 4, 4), dtype=np.int32)
            vol, mask = _pair(data, labels, (1.7, 1.1, 0.6), {1: 1})
            out_vol, _ = resample_isotropic(vol, mask, 0.9)
            assert out_vol.data.min() >= data.min() - 1e-12
            assert out_vol.data.max() <= data.max() + 1e-12

    def test_no_new_labels_introduced(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 4, size=(5, 5, 5)).astype(np.int32)
        data = rng.normal(size=(5, 5, 5))
        vol, mask = _pair(data, labels, (1.4, 1.4, 1.4), {1: 1, 2: 2, 3: 3})
        _, out_mask = resample_isotropic(vol, mask, 1.0)
        assert set(np.unique(out_mask.labels)) <= set(np.unique(labels))

    def test_axis_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(4, 5, 6))
        labels = (rng.random((4, 5, 6)) < 0.4).astype(np.int32)
        spacing = (0.9, 1.4, 2.0)
        vol, mask = _pair(data, labels, spacing, {1: 1})
        out_vol, out_mask = resample_isotropic(vol, mask, 1.0)
        for perm in [(1, 0, 2), (2, 1, 0), (1, 2, 0)]:
            pvol = VoxelVolume(data=np.transpose(data, perm), spacing=tuple(spacing[a] for a in perm))
            pmask = LesionMask(
                labels=np.transpose(labels, perm),
                spacing=tuple(spacing[a] for a in perm),
                class_of_label={1: 1},
            )
            pv, pm = resample_isotropic(pvol, pmask, 1.0)
            assert np.allclose(pv.data, np.transpose(out_vol.data, perm), rtol=0, atol=1e-12)
            assert np.array_equal(pm.labels, np.transpose(out_mask.labels, perm))

    def test_non_positive_target_rejected(self):
        data = np.zeros((2, 2, 2))
        labels = np.zeros((2, 2, 2), dtype=np.int32)
        vol, mask = _pair(data, labels, (1, 1, 1), {})
        for target in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=r"^spacing must be positive and finite, got \("):
                resample_isotropic(vol, mask, target)

    def test_geometry_mismatch_rejected(self):
        vol = VoxelVolume(data=np.zeros((2, 2, 2)), spacing=(1, 1, 1))
        mask = LesionMask(labels=np.zeros((3, 2, 2), dtype=np.int32), spacing=(1, 1, 1))
        with pytest.raises(GeometryError):
            resample_isotropic(vol, mask, 1.0)

    @pytest.mark.parametrize("target, dims", [(1e-300, "4e+300 x 4e+300 x 4e+300"), (1e-320, "inf x inf x inf")])
    def test_a_grid_no_array_can_hold_is_a_geometry_error(self, target, dims):
        # numpy would refuse the 1e-300 mm grid as "Maximum allowed size
        # exceeded", and int() the infinite sample count at 1e-320 mm
        vol, mask = _pair(np.zeros((4, 4, 4)), np.ones((4, 4, 4), dtype=np.int32), (1, 1, 1), {1: 1})
        message = f"resampling to {target:g} mm gives dims {dims}: over {np.iinfo(np.intp).max} bytes as float64"
        with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
            resample_isotropic(vol, mask, target)
        with pytest.raises(LesionSizeError):  # the per-lesion path caps the box first
            extract_lesions(vol, mask, target)


class TestExtractLesions:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_region_rejects_non_finite_intensities(self, bad):
        intensities = np.zeros(27)
        intensities[13] = bad
        with pytest.raises(ValueError, match="non-finite intensities"):
            LesionRegion(coordinates=np.argwhere(np.ones((3, 3, 3))), intensities=intensities, spacing=(1, 1, 1))

    def test_single_label(self):
        labels = np.zeros((4, 4, 4), dtype=np.int32)
        labels[1:3, 1:3, 1] = 1  # 4 voxels
        labels[0, 0, 0] = 1
        labels[3, 3, 3] = 1  # 6 total
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 4, 4))
        vol, mask = _pair(data, labels, (1, 1, 1), {1: 2})
        regions = extract_lesions(vol, mask, 1.0)
        assert len(regions) == 1
        region, class_id = regions[0]
        assert class_id == 2
        assert len(region) == 6
        for c, v in zip(region.coordinates, region.intensities):
            assert v == data[tuple(c)]

    def test_two_labels_in_label_order(self):
        labels = np.zeros((4, 4, 4), dtype=np.int32)
        labels[0, 0, 0] = 2
        labels[1, 1, 1] = 1
        vol, mask = _pair(np.zeros((4, 4, 4)), labels, (1, 1, 1), {1: 1, 2: 3})
        regions = extract_lesions(vol, mask, 1.0)
        assert [r.label for r, _ in regions] == [1, 2]
        assert [cls for _, cls in regions] == [1, 3]

    @pytest.mark.parametrize("target, shape", [(0.01, "2000 x 2000 x 2000"), (1e-300, r"2e\+301 x 2e\+301 x 2e\+301")])
    def test_a_box_over_the_cap_fails_before_anything_of_its_size(self, target, shape):
        # a 20-voxel cube at 1 mm holds 8e9 samples at 0.01 mm, and a sample
        # count past the float range at 1e-300 mm
        labels = np.zeros((24, 24, 24), dtype=np.uint8)
        labels[2:22, 2:22, 2:22] = 1
        vol, mask = _pair(np.zeros(labels.shape), labels, (1, 1, 1), {1: 1})
        message = rf"^label 1: its box on the {target:g} mm grid would hold about \S+ voxels \({shape}\), "
        tracemalloc.start()
        try:
            with pytest.raises(LesionSizeError, match=message + r"over the cap of 16777216$"):
                extract_lesions(vol, mask, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert volume_io.MAX_BOX_VOXELS == 2**24
        assert peak < 2**20

    def test_the_cap_holds_a_box_of_its_size(self, monkeypatch):
        # a 4 x 4 x 4 box at 1 mm is 64 samples on the 1 mm grid, 4 x 4 x 5 is 80
        monkeypatch.setattr(volume_io, "MAX_BOX_VOXELS", 64)
        labels = np.zeros((8, 8, 8), dtype=np.uint8)
        labels[1:5, 1:5, 1:5] = 1
        labels[1:5, 1:5, 6] = 2
        vol, mask = _pair(np.zeros(labels.shape), labels, (1, 1, 1), {1: 1, 2: 2})
        assert [len(r) for r, _ in extract_lesions(vol, mask, 1.0)] == [64, 16]
        labels[1:5, 1:5, 5] = 1
        vol, mask = _pair(np.zeros(labels.shape), labels, (1, 1, 1), {1: 1, 2: 2})
        with pytest.raises(LesionSizeError, match=r"^label 1: .* about 80 voxels \(4 x 4 x 5\), over the cap of 64$"):
            extract_lesions(vol, mask, 1.0)

    @pytest.mark.parametrize("target", [1.0, 0.7])
    def test_negative_zero_hu_is_sampled_as_positive_zero(self, target):
        # gathered at the input spacing or blended at 0.7 mm, no sample is -0.0
        labels = np.zeros((5, 5, 5), dtype=np.uint8)
        labels[1:4, 1:4, 1:4] = 1
        vol, mask = _pair(np.full(labels.shape, -0.0, np.float32), labels, (1, 1, 1), {1: 1})
        [(region, _)] = extract_lesions(vol, mask, target)
        assert len(region) >= 27 and not np.signbit(region.intensities).any()
        assert not np.signbit(resample_isotropic(vol, mask, target)[0].data).any()

    def test_vanished_label_warns_and_drops(self):
        # a 1-voxel label at 2 mm disappears when resampled to 5 mm
        labels = np.zeros((4, 4, 4), dtype=np.int32)
        labels[1, 1, 1] = 1
        vol, mask = _pair(np.zeros((4, 4, 4)), labels, (2.0, 2.0, 2.0), {1: 1})
        rvol, rmask = resample_isotropic(vol, mask, 5.0)
        assert not (rmask.labels == 1).any()
        with pytest.warns(UserWarning, match="label 1"):
            regions = extract_lesions(rvol, rmask, 5.0)
        assert regions == []


def _extract_recording_warnings(*args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        regions = extract_lesions(*args)
    return regions, caught


def _assert_roi_extraction_is_bitwise(data, labels, spacing, class_of_label, target):
    vol, mask = _pair(data, labels, spacing, class_of_label)
    got, got_warnings = _extract_recording_warnings(vol, mask, target)
    want, want_warnings = _extract_recording_warnings(*resample_isotropic(vol, mask, target), target)
    assert [(w.category, str(w.message), w.filename) for w in got_warnings] == [
        (w.category, str(w.message), w.filename) for w in want_warnings
    ]
    assert all(w.filename == __file__ for w in got_warnings)
    _assert_same_regions(got, want)
    return got, got_warnings


def _assert_same_regions(got, want):
    assert len(got) == len(want)
    for (g, g_cls), (w, w_cls) in zip(got, want):
        assert (g.label, g_cls, g.spacing) == (w.label, w_cls, w.spacing)
        assert g.coordinates.dtype == w.coordinates.dtype
        assert g.coordinates.tobytes() == w.coordinates.tobytes()
        assert g.intensities.dtype == w.intensities.dtype
        assert g.intensities.tobytes() == w.intensities.tobytes()


_SPACINGS = (0.35, 0.7, 1.0, 1.3, 2.5)


@hs.composite
def _scans(draw):
    """(data, labels, spacing, class_of_label, target): up to three box-shaped,
    partly filled lesions, anisotropic spacing on both sides of the target,
    and a class map that may name a label the mask lacks."""
    dims = tuple(draw(hs.integers(1, 9)) for _ in range(3))
    spacing = tuple(draw(hs.sampled_from(_SPACINGS)) for _ in range(3))
    target = draw(hs.sampled_from((0.5, 0.9, 1.0, 1.7, 3.0)))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    data = rng.normal(40.0, 300.0, size=dims)
    labels = np.zeros(dims, dtype=np.int32)
    class_of_label = {}
    for label in draw(hs.lists(hs.integers(1, 2**31 - 1), max_size=3, unique=True)):
        lo = [draw(hs.integers(0, d - 1)) for d in dims]
        box = tuple(slice(a, draw(hs.integers(a + 1, d))) for a, d in zip(lo, dims))
        fill = rng.random(labels[box].shape) < draw(hs.floats(0.2, 1.0))
        fill.flat[0] = True
        labels[box][fill] = label
        class_of_label[label] = draw(hs.integers(1, 3))
    if draw(hs.booleans()):
        class_of_label[7] = 2  # absent unless drawn as a lesion label too
    if draw(hs.booleans()):
        data, labels = np.asfortranarray(data), np.asfortranarray(labels)
    return data, labels, spacing, class_of_label, target


def _faces_scan(target):
    """Six one-voxel slabs, label k on face k, at anisotropic spacing."""
    dims = (8, 7, 6)
    labels = np.zeros(dims, dtype=np.int32)
    for axis in range(3):
        for side in (0, 1):
            index = [slice(1, d - 1) for d in dims]
            index[axis] = -1 if side else 0
            labels[tuple(index)] = 2 * axis + side + 1
    data = np.random.default_rng(11).normal(size=dims)
    return data, labels, (0.7, 1.3, 2.5), {k: 1 + k % 3 for k in range(1, 7)}, target


def _erased_scan():
    """A one-voxel label that nearest-neighbour sampling at 5 mm misses,
    next to a lesion that survives, plus a class-map label absent from the mask."""
    labels = np.zeros((6, 6, 6), dtype=np.int32)
    labels[1, 1, 1] = 3
    labels[3:6, 3:6, 3:6] = 1
    data = np.random.default_rng(12).normal(size=labels.shape)
    return data, labels, (2.0, 2.0, 2.0), {1: 1, 3: 2, 5: 3}, 5.0


@hs.composite
def _sampler_scans(draw):
    """(vol, mask, t): an int16 or float64 payload at random spacings with up
    to two box-shaped labels, and a random target or one that is an axis's
    spacing, twice it or half it, where a crop's fractions on an axis can all
    be 0 while the whole grid's are not."""
    dims = tuple(draw(hs.integers(1, 8)) for _ in range(3))
    spacing = tuple(draw(hs.floats(0.3, 2.5)) for _ in range(3))
    s = draw(hs.sampled_from(spacing))
    t = draw(hs.one_of(hs.floats(0.5, 4.0), hs.sampled_from((s, 2 * s, s / 2))))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    if draw(hs.booleans()):
        data = rng.integers(-1024, 3072, size=dims, dtype=np.int16)
    else:
        data = rng.normal(40.0, 300.0, size=dims)
    labels = np.zeros(dims, dtype=np.int32)
    for label in range(1, draw(hs.integers(1, 2)) + 1):
        lo = [draw(hs.integers(0, d - 1)) for d in dims]
        labels[tuple(slice(a, draw(hs.integers(a + 1, d))) for a, d in zip(lo, dims))] = label
    return (*_pair(data, labels, spacing, {1: 1, 2: 2}), t)


def _whole_grid(vol, t):
    return [(0, int(volume_io._axis_length(d, s, t))) for d, s in zip(vol.dims, vol.spacing)]


def _assert_box_is_the_whole_grid_cropped(vol, mask, t, box):
    whole_values, whole_labels = volume_io._resample(vol, mask, t, _whole_grid(vol, t))
    values, labels = volume_io._resample(vol, mask, t, box)
    crop = tuple(slice(a, b) for a, b in box)
    assert values.dtype == whole_values.dtype and values.tobytes() == whole_values[crop].tobytes()
    assert labels.dtype == whole_labels.dtype and labels.tobytes() == whole_labels[crop].tobytes()


class TestSampler:
    """volume_io._resample on a box of the output grid against the whole grid's
    samples there, and _output_box's box against the label's samples."""

    @settings(max_examples=60, deadline=None)
    @given(_sampler_scans(), hs.data())
    def test_a_box_is_the_whole_grid_cropped_bitwise(self, scan, data):
        vol, mask, t = scan
        box = []
        for _, n in _whole_grid(vol, t):
            a = data.draw(hs.integers(0, n - 1))
            box.append((a, data.draw(hs.integers(a + 1, n))))
        _assert_box_is_the_whole_grid_cropped(vol, mask, t, box)

    def test_a_crop_with_no_fraction_matches_the_blended_grid(self):
        # at half the spacing the whole grid blends on every axis, but the
        # one sample of this crop lies on an input voxel: no blend runs there
        vol, mask = _pair(np.random.default_rng(3).normal(size=(5, 5, 5)), np.zeros((5, 5, 5), np.int32), (1, 1, 1), {})
        _assert_box_is_the_whole_grid_cropped(vol, mask, 0.5, [(2, 3), (4, 5), (0, 1)])

    @settings(max_examples=60, deadline=None)
    @given(_sampler_scans())
    def test_the_output_box_holds_its_label_and_at_most_three_more_samples_a_side(self, scan):
        vol, mask, t = scan
        whole = _whole_grid(vol, t)
        _, whole_labels = volume_io._resample(vol, mask, t, whole)
        # the nearest input index of each output sample on an axis, read from
        # the sampler itself through a mask that labels each voxel by its index
        index = np.indices(vol.dims)
        nearest = [
            volume_io._resample(vol, LesionMask(index[axis], vol.spacing, {i: 1 for i in range(1, d)}), t, whole)[1]
            for axis, d in enumerate(vol.dims)
        ]
        for label, (lo, hi) in mask.boxes.items():
            box = volume_io._output_box(vol, t, label, lo, hi)
            inside = np.zeros(whole_labels.shape, dtype=bool)
            inside[tuple(slice(a, b) for a, b in box)] = True
            assert not (whole_labels[~inside] == label).any()
            for axis, ((a, b), first, last) in enumerate(zip(box, lo, hi)):
                line = np.moveaxis(nearest[axis], axis, 0)[:, 0, 0]
                # every sample nearest to the label's input box is in the box,
                # and on each side at most three samples nearest to outside it
                held = line[a:b]
                assert ((held >= first) & (held <= last)).sum() == ((line >= first) & (line <= last)).sum()
                assert (held < first).sum() <= 3 and (held > last).sum() <= 3


class TestRoiExtraction:
    """extract_lesions(vol, mask, t) against extract_lesions(rvol, rmask, t) on the
    pair (rvol, rmask) that resample_isotropic(vol, mask, t) makes."""

    @settings(max_examples=60, deadline=None)
    @given(_scans())
    @example(_faces_scan(0.5))
    @example(_faces_scan(1.0))
    @example(_faces_scan(3.0))
    @example(_erased_scan())
    def test_matches_full_resample_bitwise(self, scan):
        _assert_roi_extraction_is_bitwise(*scan)

    @pytest.mark.parametrize("target", [0.5, 1.0])  # at 3.0 some slabs fall between samples
    def test_lesions_on_all_six_faces(self, target):
        regions, _ = _assert_roi_extraction_is_bitwise(*_faces_scan(target))
        assert [r.label for r, _ in regions] == [1, 2, 3, 4, 5, 6]

    def test_erased_and_absent_labels_warn_identically(self):
        regions, caught = _assert_roi_extraction_is_bitwise(*_erased_scan())
        assert [r.label for r, _ in regions] == [1]
        assert [str(w.message) for w in caught] == [
            "label 3 has no voxels and was dropped",
            "label 5 has no voxels and was dropped",
        ]

    @settings(max_examples=40, deadline=None)
    @given(_scans(), hs.sampled_from(["<", ">", "rescaled int16"]))
    @example(_faces_scan(1.0), ">")
    @example(_erased_scan(), "rescaled int16")
    def test_memory_mapped_files_match_in_memory_bitwise(self, scan, layout):
        # each lesion box converted from the map gives the bytes that the
        # whole scan, converted first and resampled whole, gives there
        data, labels, spacing, class_of_label, target = scan
        if layout == "rescaled int16":
            byteorder, datatype, scale = "<", 4, (0.5, -3.25)
            payload = np.rint(data / scale[0]).astype(np.int16)
            hu = payload * scale[0] + scale[1]
        else:
            byteorder, datatype, scale = layout, 64, (1.0, 0.0)
            payload = hu = data
        with tempfile.TemporaryDirectory() as tmp:
            image, mask_file = Path(tmp) / "image.nii", Path(tmp) / "mask.nii"
            image.write_bytes(
                make_nifti_bytes(
                    dims=data.shape,
                    pixdim=spacing,
                    datatype=datatype,
                    payload=np.ravel(payload, order="F"),
                    scl_slope=scale[0],
                    scl_inter=scale[1],
                    byteorder=byteorder,
                )
            )
            mask_file.write_bytes(
                make_nifti_bytes(
                    dims=data.shape, pixdim=spacing, datatype=8, payload=np.ravel(labels, order="F"), byteorder=byteorder
                )
            )
            vol = read_volume(image)
            mask = read_mask(mask_file, class_of_label)
            mem_vol, mem_mask = _pair(hu, labels, vol.spacing, mask.class_of_label)
            got, _ = _extract_recording_warnings(vol, mask, target)
            want, _ = _extract_recording_warnings(*resample_isotropic(mem_vol, mem_mask, target), target)
            _assert_same_regions(got, want)
            assert vol.data.tobytes() == mem_vol.data.tobytes()
            del vol, mask  # release the maps before the directory goes

    def test_memory_follows_the_lesion_not_the_scan(self, tmp_path):
        # a float64 copy of this int16 scan is 33.5 MB; the read, the mask read
        # and the split may hold one byte per mask voxel (the nonzero pass) plus
        # a few float64 copies of the lesion's input box
        dims, spacing = (256, 256, 64), (0.7, 0.7, 2.5)
        image = np.random.default_rng(5).integers(-1000, 1000, size=dims, dtype=np.int16)
        labels = np.zeros(dims, dtype=np.uint8)
        box = (slice(100, 110), slice(120, 128), slice(30, 34))
        labels[box] = 1
        write_nifti(tmp_path / "image.nii", image, spacing)
        write_nifti(tmp_path / "mask.nii", labels, spacing)
        box_bytes = 8 * np.prod([b.stop - b.start + 2 for b in box])  # the input box with its trilinear margin
        bound = labels.size + 32 * box_bytes + 2**16
        assert bound < image.size * 8 / 6
        tracemalloc.start()
        try:
            vol = read_volume(tmp_path / "image.nii")
            mask = read_mask(tmp_path / "mask.nii", {1: 2})
            regions = extract_lesions(vol, mask, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [(r.label, cls) for r, cls in regions] == [(1, 2)]
        assert peak < bound
        del vol, mask

    def test_target_validated_before_geometry(self):
        vol = VoxelVolume(data=np.zeros((2, 2, 2)), spacing=(1, 1, 1))
        mask = LesionMask(labels=np.zeros((3, 2, 2), dtype=np.int32), spacing=(1, 1, 1))
        with pytest.raises(ValueError, match=r"^spacing must be positive and finite, got \("):
            extract_lesions(vol, mask, 0.0)
        with pytest.raises(GeometryError):
            extract_lesions(vol, mask, 1.0)


def _four_d_header(tmp_path):
    blob = bytearray(make_nifti_bytes(payload=np.zeros(16)))
    struct.pack_into("<8h", blob, 40, 4, 2, 2, 2, 2, 1, 1, 1)
    return write_blob(tmp_path, bytes(blob))


_ONE, _CUBE = (1, 1, 1), np.zeros((2, 2, 2))
_LABELS = np.zeros((2, 2, 2), dtype=np.int32)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp: VoxelVolume(np.zeros((2, 2)), _ONE), ValueError, r"volume data must be 3D, got shape \(2, 2\)"),
        (lambda tmp: VoxelVolume(np.full((2, 2, 2), np.nan), _ONE), ValueError, "volume contains non-finite values"),
        (lambda tmp: LesionMask(_CUBE, _ONE), MaskError, "mask labels must be integers, got dtype float64"),
        (
            lambda tmp: LesionMask(np.zeros((2, 2), dtype=np.int32), _ONE),
            ValueError,
            r"mask labels must be 3D, got shape \(2, 2\)",
        ),
        (lambda tmp: LesionMask(_LABELS, _ONE, {1: 4}), ValueError, "class id for label 1 must be 1, 2 or 3, got 4"),
        (
            lambda tmp: LesionRegion(np.zeros((2, 2)), np.zeros(2), _ONE),
            ValueError,
            r"coordinates must be an \(n, 3\) index array",
        ),
        (lambda tmp: LesionRegion(np.zeros((0, 3)), np.zeros(0), _ONE), ValueError, "a lesion region cannot be empty"),
        (
            lambda tmp: LesionRegion(np.zeros((2, 3)), np.zeros(3), _ONE),
            ValueError,
            "coordinates and intensities length mismatch",
        ),
        (
            lambda tmp: read_volume(_four_d_header(tmp)),
            NiftiFormatError,
            r".+img\.nii: only 3D images are supported, got dim=\(4, 2, 2, 2, 2\)",
        ),
        (lambda tmp: write_nifti(tmp / "x.nii", np.zeros((2, 2)), _ONE), ValueError, "only 3D arrays can be written"),
        (
            lambda tmp: write_nifti(tmp / "x.nii", np.zeros((2, 2, 2), dtype=bool), _ONE),
            ValueError,
            "unsupported dtype bool; use one of ",
        ),
        (
            lambda tmp: volume_io.check_geometry(VoxelVolume(_CUBE, _ONE), LesionMask(_LABELS, (1, 1, 2))),
            GeometryError,
            r"spacing mismatch: volume \(1\.0, 1\.0, 1\.0\) vs mask \(1\.0, 1\.0, 2\.0\)",
        ),
        (
            lambda tmp: volume_io.check_geometry(VoxelVolume(_CUBE, _ONE), LesionMask(_LABELS, _ONE, origin=(0, 0, 1))),
            GeometryError,
            r"origin mismatch: volume \(0\.0, 0\.0, 0\.0\) vs mask \(0\.0, 0\.0, 1\.0\)",
        ),
    ],
    ids=[
        "2D volume",
        "non-finite volume",
        "float labels",
        "2D labels",
        "class outside the ids",
        "2D coordinates",
        "empty region",
        "intensity count",
        "4D NIfTI",
        "write 2D",
        "write bool",
        "spacing mismatch",
        "origin mismatch",
    ],
)
def test_each_rejected_input_names_its_fault(tmp_path, call, error, message):
    with pytest.raises(error, match=f"^{message}"):
        call(tmp_path)
