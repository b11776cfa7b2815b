"""Volume and lesion-mask I/O: single-file NIfTI-1 reading/writing, isotropic
resampling, and splitting a labelled mask into per-lesion voxel regions.

Volumes are held as (x, y, z)-indexed grids of Hounsfield units with
physical voxel spacing in mm; a volume read from disk stays memory-mapped and
is converted to float64 one lesion box at a time.  Only the geometry-bearing
header fields are honoured (dim, pixdim, datatype, scl_slope/scl_inter,
vox_offset, qoffset); orientation matrices are ignored.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ClassMapError, GeometryError, LesionSizeError, MaskError, NiftiFormatError
from .errors import UnsupportedDataTypeError

HEADER_SIZE = 348

# The most voxels a lesion's box may hold on the resampled grid: 128 MiB as
# float64, about 50 times the 1 mm box of a 35 mm radius lesion.  A box past
# it fails its scan before anything of its size is allocated.
MAX_BOX_VOXELS = 2**24

# NIfTI-1 datatype code -> numpy dtype (unscaled on-disk type)
_DTYPES = {
    2: np.uint8,
    4: np.int16,
    8: np.int32,
    16: np.float32,
    64: np.float64,
}
_DTYPE_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}
_MAX_DIM = np.iinfo(np.int16).max  # the header stores each axis length as an int16


def _geometry(spacing, origin) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Spacing and origin as tuples of floats; ValueError unless every spacing
    is positive and finite and every origin coordinate finite."""
    spacing, origin = tuple(float(s) for s in spacing), tuple(float(o) for o in origin)
    if not all(0 < s < np.inf for s in spacing):  # NaN too
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    if not np.isfinite(origin).all():
        raise ValueError(f"origin must be finite, got {origin}")
    return spacing, origin


class VoxelVolume:
    """A 3D scalar grid (HU) with physical spacing and origin in mm.

    The grid is held once, as a payload and a linear rescale: the array it
    was built from, widened to float64 unless NIfTI-1 stores its dtype, or
    the memory-mapped file values of a volume from ``read_volume``.  ``values``
    converts the sub-grid a caller asks for and ``data`` the whole grid, each
    into a new float64 array.
    """

    def __init__(self, data, spacing, origin=(0.0, 0.0, 0.0)):
        data = np.asarray(data)
        if data.dtype not in _DTYPE_CODES:
            data = data.astype(np.float64)
        if data.ndim != 3:
            raise ValueError(f"volume data must be 3D, got shape {data.shape}")
        self.spacing, self.origin = _geometry(spacing, origin)
        if not np.isfinite(data).all():
            raise ValueError("volume contains non-finite values")
        self._payload, self._scale = data, (1.0, 0.0)

    @classmethod
    def _from_payload(cls, payload: np.ndarray, scale: tuple[float, float], spacing, origin) -> VoxelVolume:
        """A volume over on-disk values whose HU values ``payload * slope + inter`` are known finite."""
        vol = cls.__new__(cls)
        vol.spacing, vol.origin = _geometry(spacing, origin)
        vol._payload, vol._scale = payload, scale
        return vol

    @property
    def payload(self) -> np.ndarray:
        """The array held, whose values give HU through the volume's linear rescale."""
        return self._payload

    @property
    def data(self) -> np.ndarray:
        return self.values((slice(None),) * 3)

    def values(self, box: tuple[slice, slice, slice]) -> np.ndarray:
        """The float64 HU values of the sub-grid ``box``, converted from the payload."""
        return _to_hu(self._payload[box], self._scale)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self._payload.shape


CLASS_IDS = (1, 2, 3)  # the lesion classes a mask label or a feature row may carry


@dataclass
class LesionMask:
    """Integer-labelled grid aligned to a volume; label 0 is background.

    ``boxes`` holds the inclusive index bounds of every nonzero label in
    ascending label order (``_label_boxes``).  It is computed here from
    ``labels`` unless the caller, having made that one pass over the mask
    already, passes it in.
    """

    labels: np.ndarray
    spacing: tuple[float, float, float]
    class_of_label: dict[int, int] = field(default_factory=dict)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    boxes: dict[int, tuple[np.ndarray, np.ndarray]] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise MaskError(f"mask labels must be integers, got dtype {self.labels.dtype}")
        if self.labels.ndim != 3:
            raise ValueError(f"mask labels must be 3D, got shape {self.labels.shape}")
        if self.boxes is None:
            self.boxes = _label_boxes(self.labels)
        present = list(self.boxes)
        if present and present[0] < 0:
            raise MaskError("mask labels must be non-negative")
        self.spacing, self.origin = _geometry(self.spacing, self.origin)
        self.class_of_label = {int(k): int(v) for k, v in self.class_of_label.items()}
        for label, cls in self.class_of_label.items():
            if cls not in CLASS_IDS:
                raise ValueError(f"class id for label {label} must be 1, 2 or 3, got {cls}")
        missing = [lbl for lbl in present if lbl not in self.class_of_label]
        if missing:
            raise ClassMapError(f"mask labels {missing} missing from the label-to-class map")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.shape


@dataclass
class LesionRegion:
    """Voxel coordinates and intensities of a single annotated lesion."""

    coordinates: np.ndarray  # (n, 3) integer voxel indices
    intensities: np.ndarray  # (n,) HU values at those voxels
    spacing: tuple[float, float, float]
    label: int = 0

    def __post_init__(self):
        self.coordinates = np.asarray(self.coordinates, dtype=np.intp)
        self.intensities = np.asarray(self.intensities, dtype=np.float64)
        if self.coordinates.ndim != 2 or self.coordinates.shape[1] != 3:
            raise ValueError("coordinates must be an (n, 3) index array")
        if len(self.coordinates) == 0:
            raise ValueError("a lesion region cannot be empty")
        if len(self.intensities) != len(self.coordinates):
            raise ValueError("coordinates and intensities length mismatch")
        if not np.isfinite(self.intensities).all():
            raise ValueError("lesion region contains non-finite intensities")
        self.spacing = _geometry(self.spacing, ())[0]  # a region has no origin

    def __len__(self) -> int:
        return len(self.coordinates)


def _parse_header(raw: bytes, path) -> dict:
    if raw[:2] == b"\x1f\x8b":  # the gzip magic
        raise NiftiFormatError(f"{path}: gzip-compressed NIfTI (.nii.gz) is not supported; decompress it to .nii")
    if len(raw) < HEADER_SIZE:
        raise NiftiFormatError(f"{path}: file too short for a NIfTI-1 header")
    for order in ("<", ">"):
        (sizeof_hdr,) = struct.unpack(order + "i", raw[0:4])
        if sizeof_hdr == HEADER_SIZE:
            break
    else:
        raise NiftiFormatError(f"{path}: sizeof_hdr is not 348 in either byte order")
    magic = raw[344:348]
    if magic[:3] != b"n+1":
        raise NiftiFormatError(f"{path}: bad magic {magic!r}; only single-file NIfTI-1 ('n+1') is supported")
    dim = struct.unpack(order + "8h", raw[40:56])
    pixdim = struct.unpack(order + "8f", raw[76:108])
    (datatype,) = struct.unpack(order + "h", raw[70:72])
    (bitpix,) = struct.unpack(order + "h", raw[72:74])
    (vox_offset,) = struct.unpack(order + "f", raw[108:112])
    (scl_slope,) = struct.unpack(order + "f", raw[112:116])
    (scl_inter,) = struct.unpack(order + "f", raw[116:120])
    qoffset = struct.unpack(order + "3f", raw[268:280])

    ndim = dim[0]
    if ndim < 3 or ndim > 7:
        raise NiftiFormatError(f"{path}: dim[0]={ndim} outside 3..7")
    if any(d > 1 for d in dim[4 : 1 + ndim]):
        raise NiftiFormatError(f"{path}: only 3D images are supported, got dim={dim[: 1 + ndim]}")
    dims = dim[1:4]
    if any(d < 1 for d in dims):
        raise NiftiFormatError(f"{path}: non-positive dims {dims}")
    try:
        spacing, origin = _geometry(pixdim[1:4], qoffset)
    except ValueError as exc:
        raise NiftiFormatError(f"{path}: pixdim or qoffset: {exc}") from None
    if datatype not in _DTYPES:
        raise UnsupportedDataTypeError(f"{path}: unsupported NIfTI datatype code {datatype}")
    expected_bitpix = np.dtype(_DTYPES[datatype]).itemsize * 8
    if bitpix != expected_bitpix:
        raise NiftiFormatError(f"{path}: bitpix {bitpix} inconsistent with datatype {datatype}")
    if not (HEADER_SIZE <= vox_offset < np.inf and vox_offset.is_integer()):  # NaN too
        raise NiftiFormatError(f"{path}: vox_offset {vox_offset} is not a whole byte offset past the header")
    return {
        "order": order,
        "dims": tuple(int(d) for d in dims),
        "spacing": spacing,
        "origin": origin,
        "datatype": datatype,
        "vox_offset": int(vox_offset),
        "scl_slope": float(scl_slope),
        "scl_inter": float(scl_inter),
    }


def _read_payload(path) -> tuple[dict, np.ndarray]:
    """Map a single-file NIfTI-1 image's payload as an (x, y, z) array of its
    on-disk values, in the file's byte order.

    The map is copy-on-write, so the array is writeable without touching the
    file; it holds a duplicate of the file descriptor until it is collected.
    """
    with open(path, "rb") as fh:
        hdr = _parse_header(fh.read(HEADER_SIZE), path)
        dims = hdr["dims"]
        dtype = np.dtype(_DTYPES[hdr["datatype"]]).newbyteorder(hdr["order"])
        n_voxels = dims[0] * dims[1] * dims[2]
        start = hdr["vox_offset"]
        size = os.fstat(fh.fileno()).st_size
        if size < start + n_voxels * dtype.itemsize:
            raise NiftiFormatError(
                f"{path}: payload truncated ({size - start} bytes, need {n_voxels * dtype.itemsize})"
            )
        payload = np.memmap(fh, dtype=dtype, mode="c", offset=start, shape=dims, order="F")
    return hdr, payload.view(np.ndarray)


def _scale(hdr: dict, path) -> tuple[float, float]:
    """The header's (slope, intercept), slope 0 read as 1.

    A NaN or infinite scl_slope or scl_inter is rejected before any
    arithmetic, so it raises instead of warning.
    """
    if not np.isfinite([hdr["scl_slope"], hdr["scl_inter"]]).all():
        raise NiftiFormatError(
            f"{path}: non-finite rescale scl_slope={hdr['scl_slope']}, scl_inter={hdr['scl_inter']}"
        )
    return (hdr["scl_slope"] if hdr["scl_slope"] != 0.0 else 1.0), hdr["scl_inter"]


def _to_hu(payload: np.ndarray, scale: tuple[float, float]) -> np.ndarray:
    """On-disk values as float64 with the linear rescale applied; element by
    element, so any part of a payload converts to the bytes the whole has there."""
    data = payload.astype(np.float64)
    slope, inter = scale
    if slope != 1.0 or inter != 0.0:
        data = data * slope + inter
    return data


# voxels per chunk of a payload streamed from its file (8 MiB as float64)
_SLAB_VOXELS = 1 << 20


def _payload_chunks(path, hdr: dict, payload: np.ndarray, scale: tuple[float, float]):
    """Each run of ``_SLAB_VOXELS`` voxels in file (F) order as HU (an overflow is inf, and a signalling
    NaN converts without a warning), with the flat index of its first; read from the file, not the
    map, so no page of the map stays resident."""
    for start in range(0, payload.size, _SLAB_VOXELS):
        offset = hdr["vox_offset"] + start * payload.itemsize
        chunk = np.fromfile(path, payload.dtype, min(_SLAB_VOXELS, payload.size - start), offset=offset)
        with np.errstate(over="ignore", invalid="ignore"):
            chunk = _to_hu(chunk, scale)
        yield start, chunk


def read_volume(path) -> VoxelVolume:
    """Read a CT volume from a single-file NIfTI-1 image.

    The header's linear rescale (scl_slope/scl_inter, slope 0 treated as 1)
    is applied so the data is in Hounsfield units.  The payload stays
    memory-mapped: float64 is made only for the parts of the grid that are
    read (``VoxelVolume.values``), or for all of it on each read of ``data``.
    """
    hdr, payload = _read_payload(path)
    scale = _scale(hdr, path)
    # integers under a finite float32 rescale stay finite in float64; floats
    # are checked here, streamed one chunk at a time, so no whole-scan copy exists
    if not np.issubdtype(payload.dtype, np.integer):
        for _, chunk in _payload_chunks(path, hdr, payload, scale):
            if not np.isfinite(chunk).all():
                raise NiftiFormatError(f"{path}: volume contains non-finite voxel values")
    return VoxelVolume._from_payload(payload, scale, hdr["spacing"], hdr["origin"])


def read_mask(path, class_map: dict[int, int]) -> LesionMask:
    """Read an integer-labelled lesion mask and attach class ids.

    ``class_map`` maps mask labels to class ids; it may cover labels absent
    from this particular file (e.g. one shared map for a whole cohort), but
    every nonzero label present in the file must have an entry.  Integer
    payloads keep their on-disk type; a float or rescaled payload must hold
    whole numbers in the int32 range.  It is read one chunk at a time into
    uint8 labels, which are widened only when a chunk holds a label they
    cannot.
    """
    hdr, payload = _read_payload(path)
    scale = _scale(hdr, path)
    if np.issubdtype(payload.dtype, np.integer) and scale == (1.0, 0.0):
        labels = payload.astype(payload.dtype.newbyteorder("="), copy=False)  # the map itself when native
    else:
        lo, hi = np.iinfo(np.int32).min, np.iinfo(np.int32).max
        labels = np.empty(payload.shape, dtype=np.uint8, order="F")
        for start, data in _payload_chunks(path, hdr, payload, scale):
            with np.errstate(invalid="ignore"):  # a signalling NaN fails the integer test below
                rounded = np.rint(data)
            if not np.array_equal(data, rounded):
                raise MaskError(f"{path}: mask contains non-integer voxel values")
            low, high = data.min(), data.max()
            if low < lo or high > hi:
                raise MaskError(f"{path}: mask labels must lie in the int32 label range [{lo}, {hi}]")
            wider = np.result_type(labels.dtype, np.min_scalar_type(int(low)), np.min_scalar_type(int(high)))
            if wider != labels.dtype:
                labels = labels.astype(wider, order="F")
            labels.reshape(-1, order="F")[start : start + len(data)] = rounded  # a view, filled in file order
    boxes = _label_boxes(labels)
    class_of_label = {lbl: class_map[lbl] for lbl in boxes if lbl in class_map}
    try:
        return LesionMask(
            labels=labels, spacing=hdr["spacing"], class_of_label=class_of_label, origin=hdr["origin"], boxes=boxes
        )
    except (MaskError, ClassMapError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_nifti(path, data: np.ndarray, spacing, origin=(0.0, 0.0, 0.0)) -> None:
    """Write an (x, y, z) array as an uncompressed single-file NIfTI-1 image.

    The array dtype must be one of the supported on-disk types; no rescaling
    is applied (scl_slope=1, scl_inter=0).
    """
    data = np.asarray(data)
    if data.ndim != 3:
        raise ValueError("only 3D arrays can be written")
    if data.dtype not in _DTYPE_CODES:
        raise ValueError(f"unsupported dtype {data.dtype}; use one of {sorted(_DTYPES.values(), key=str)}")
    for axis, n in zip("xyz", data.shape):
        if n > _MAX_DIM:
            raise ValueError(f"axis {axis} has {n} voxels; NIfTI-1 stores at most {_MAX_DIM} per axis")
    spacing, origin = _geometry(spacing, origin)  # what read_volume would refuse
    code = _DTYPE_CODES[data.dtype]
    bitpix = data.dtype.itemsize * 8
    hdr = bytearray(352)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, data.shape[0], data.shape[1], data.shape[2], 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, code)
    struct.pack_into("<h", hdr, 72, bitpix)
    struct.pack_into("<8f", hdr, 76, 0.0, spacing[0], spacing[1], spacing[2], 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, 352.0)  # vox_offset
    struct.pack_into("<f", hdr, 112, 1.0)  # scl_slope
    struct.pack_into("<f", hdr, 116, 0.0)  # scl_inter
    struct.pack_into("<h", hdr, 252, 1)  # qform_code
    struct.pack_into("<3f", hdr, 268, origin[0], origin[1], origin[2])
    hdr[344:348] = b"n+1\x00"
    # F order of (x, y, z) is C order of (z, y, x); filling that array 16
    # y-rows at a time keeps the transpose in cache
    zyx = np.empty(data.shape[::-1], dtype=data.dtype)
    for y in range(0, data.shape[1], 16):
        zyx[:, y : y + 16] = data[:, y : y + 16].T
    with open(path, "wb") as fh:
        fh.write(bytes(hdr))
        fh.write(zyx)


def check_geometry(vol: VoxelVolume, mask: LesionMask) -> None:
    """Raise GeometryError unless volume and mask share dims, spacing and origin."""
    if vol.dims != mask.dims:
        raise GeometryError(f"dims mismatch: volume {vol.dims} vs mask {mask.dims}")
    if not np.allclose(vol.spacing, mask.spacing, rtol=1e-6, atol=0.0):
        raise GeometryError(f"spacing mismatch: volume {vol.spacing} vs mask {mask.spacing}")
    if not np.allclose(vol.origin, mask.origin, rtol=0.0, atol=1e-6):
        raise GeometryError(f"origin mismatch: volume {vol.origin} vs mask {mask.origin}")


def _axis_length(d: int, s: float, t: float) -> float:
    """The output sample count of an axis of d voxels at spacing s resampled
    to t, as a Python float: inf past the float range, where int() raises."""
    return float(np.ceil(d * (s / t)))


def _output_box(vol: VoxelVolume, target: float, label: int, lo, hi) -> list[tuple[int, int]]:
    """Per axis, output samples a..b-1 that hold every sample whose nearest
    input index lies in lo..hi, and at most about three more: the label's
    box on the output grid, found with no array.  A margin sample's nearest
    index lies outside lo..hi, so it holds other labels only and the box
    needs no trim.

    LesionSizeError if the box would hold more than MAX_BOX_VOXELS, checked
    before any count is sized by dims x spacing / target.
    """
    lo, hi = lo.tolist(), hi.tolist()  # Python numbers: a product past the float range is inf, with no warning
    extent = [(last - first + 1) * (s / target) for first, last, s in zip(lo, hi, vol.spacing)]
    voxels = math.prod(max(e, 1.0) for e in extent)
    if voxels > MAX_BOX_VOXELS:
        shape = " x ".join(f"{e:.4g}" for e in extent)
        raise LesionSizeError(
            f"label {label}: its box on the {target:g} mm grid would hold about {voxels:.3g} voxels "
            f"({shape}), over the cap of {MAX_BOX_VOXELS}"
        )
    box = []
    for d, s, first, last in zip(vol.dims, vol.spacing, lo, hi):
        # sample o is nearest to index floor(o * target / s + 0.5), and every
        # sample past the last voxel centre to d - 1; one sample of margin on
        # each side absorbs the rounding of these products
        n_out = int(_axis_length(d, s, target))  # finite: the box is under the cap
        a = max(0, math.floor((first - 0.5) * (s / target)) - 1)
        b = n_out if last == d - 1 else min(n_out, math.ceil((last + 0.5) * (s / target)) + 1)
        box.append((a, b))
    return box


def _trilinear(vol: VoxelVolume, xs, ys, zs) -> np.ndarray:
    """Trilinear samples of ``vol`` on the grid xs × ys × zs of in-range input positions.

    Values are interpolated one axis at a time, x then y then z: the lower
    neighbour, blended as (1 - f)·lower + f·upper only on an axis where some
    fraction f is nonzero.  A sample depends on its own positions alone, so a
    crop of the grid gives the bytes the whole grid has there, and a resample
    to the input spacing is one gather per axis.
    """
    lower = [np.floor(x).astype(np.intp) for x in (xs, ys, zs)]
    box = tuple(slice(int(i.min()), min(int(i.max()) + 2, d)) for i, d in zip(lower, vol.dims))
    data = vol.values(box)  # only the box the neighbours span is converted to HU
    for axis, (x, i, b) in enumerate(zip((xs, ys, zs), lower, box)):
        f = (x - i).reshape([-1 if a == axis else 1 for a in range(3)])
        i = i - b.start  # shift the indices, not the positions, into the box
        samples = np.take(data, i, axis=axis)
        if f.any():
            upper = np.take(data, np.minimum(i + 1, b.stop - b.start - 1), axis=axis)
            samples = (1.0 - f) * samples + f * upper
        data = samples
    data += 0.0  # no -0.0 sample; skipping an f = 0 blend changes no other bit
    return data


def _resample(vol: VoxelVolume, mask: LesionMask, t: float, box) -> tuple[np.ndarray, np.ndarray]:
    """The trilinear HU values and nearest-neighbour labels of the t mm grid's
    samples a..b-1 for each axis's (a, b) in ``box``.  Sample o lies at input
    position o * t / spacing, clamped to the border voxel, so it depends on
    o alone and a box gives the bytes the whole grid has there."""
    positions, nearest = [], []
    for d, s, (a, b) in zip(vol.dims, vol.spacing, box):
        x = np.arange(a, b, dtype=np.float64) * (t / s)
        np.clip(x, 0.0, d - 1, out=x)
        positions.append(x)
        nearest.append(np.clip(np.floor(x + 0.5).astype(np.intp), 0, d - 1))
    return _trilinear(vol, *positions), mask.labels[np.ix_(*nearest)]


def resample_isotropic(vol: VoxelVolume, mask: LesionMask, target: float) -> tuple[VoxelVolume, LesionMask]:
    """Resample a volume/mask pair to isotropic ``target`` mm spacing.

    Intensities are interpolated one axis at a time (``_trilinear``); labels
    use nearest-neighbour so they stay crisp.  Output dims are
    ceil(dims * spacing / target) and samples beyond the last voxel centre
    clamp to the border voxel, so no lesion voxel is lost at the boundary.
    Origins are preserved.  Output dims whose float64 grid no array can hold
    raise GeometryError first.
    """
    new_spacing = _geometry((target,) * 3, ())[0]
    check_geometry(vol, mask)
    t = new_spacing[0]
    dims = [_axis_length(d, s, t) for d, s in zip(vol.dims, vol.spacing)]
    if 8.0 * math.prod(dims) > np.iinfo(np.intp).max:
        shape = " x ".join(f"{n:.4g}" for n in dims)
        raise GeometryError(f"resampling to {t:g} mm gives dims {shape}: over {np.iinfo(np.intp).max} bytes as float64")
    values, labels = _resample(vol, mask, t, [(0, int(n)) for n in dims])
    new_vol = VoxelVolume(data=values, spacing=new_spacing, origin=vol.origin)
    new_mask = LesionMask(labels, new_spacing, class_of_label=dict(mask.class_of_label), origin=mask.origin)
    return new_vol, new_mask


def _label_boxes(labels: np.ndarray) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Inclusive (lo, hi) index bounds of every nonzero label, in ascending label order.

    One pass over the mask finds its nonzero voxels; everything else works
    from those alone, with no comparison per label and no table sized by the
    largest label value.
    """
    order = "F" if labels.flags.f_contiguous else "C"  # memory order: ravel is a view
    flat = labels.ravel(order)
    index = np.flatnonzero(flat != 0)  # several times faster than nonzero on the integers
    if not len(index):
        return {}
    values = flat[index]
    by_label = np.argsort(values, kind="stable")
    present, starts = np.unique(values[by_label], return_index=True)
    coords = np.array(np.unravel_index(index[by_label], labels.shape, order=order))
    lo = np.minimum.reduceat(coords, starts, axis=1)
    hi = np.maximum.reduceat(coords, starts, axis=1)
    return {int(lbl): (lo[:, i], hi[:, i]) for i, lbl in enumerate(present)}


def extract_lesions(vol: VoxelVolume, mask: LesionMask, target: float) -> list[tuple[LesionRegion, int]]:
    """Split a mask into per-lesion regions, ordered by ascending label.

    The regions are those of the pair resampled by
    ``resample_isotropic(vol, mask, target)``, bit for bit and in global
    output-grid coordinates: the one sampler (``_resample``) runs on each
    lesion's box (``_output_box``), not the whole grid, so the cost follows
    lesion size, not scan size.  The box's margin holds other labels only,
    so a lesion is its box's samples of its label, with no trim.

    A label that carries a class mapping but no voxels (e.g. a tiny lesion
    erased by nearest-neighbour resampling) is dropped with a warning.  A
    label whose box on the output grid would hold more than MAX_BOX_VOXELS
    raises LesionSizeError before any lesion is resampled.
    """
    target = _geometry((target,) * 3, ())[0][0]
    check_geometry(vol, mask)
    boxes = {label: _output_box(vol, target, label, *box) for label, box in mask.boxes.items()}
    regions = []
    for label in sorted(mask.class_of_label):
        coords = np.empty((0, 3), dtype=np.intp)
        if label in boxes:
            values, labels = _resample(vol, mask, target, boxes[label])
            local = np.argwhere(labels == label)
            coords = local + [a for a, _ in boxes[label]]
        if len(coords) == 0:
            warnings.warn(f"label {label} has no voxels and was dropped", stacklevel=2)
            continue
        intensities = values[tuple(local.T)]
        region = LesionRegion(coordinates=coords, intensities=intensities, spacing=(target,) * 3, label=label)
        regions.append((region, mask.class_of_label[label]))
    return regions
