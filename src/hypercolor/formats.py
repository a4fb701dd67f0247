"""File formats: binary cubes, clue sets, bases, guides and masks, plain
.npy arrays, the report and dimension-model JSON, and plot-data CSV.

All multi-byte integers and floats are little-endian. Magic numbers name the
container: ``HSC1`` dense cube, ``HSK1`` clue set, ``HSB1`` spectral basis.
Guides travel as 16-bit PGM with a JSON sidecar holding the linear scale;
masks travel as binary PBM where a 1 bit marks a sampled pixel. Every reader
error names the file, a fault its container finds (NaN, say) included.
"""

from __future__ import annotations

import csv
import io
import json
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import ClueSet, GuideImage, HyperCube, _check_type
from .errors import FormatError, TruncatedFileError, ValidationError
from .subspace import DimensionModel, SpectralBasis

__all__ = [
    "read_cube",
    "write_cube",
    "read_clues",
    "write_clues",
    "read_basis",
    "write_basis",
    "read_guide",
    "write_guide",
    "read_mask",
    "write_mask",
    "read_model",
    "write_model",
]

MAGIC_CUBE = b"HSC1"
MAGIC_CLUES = b"HSK1"
MAGIC_BASIS = b"HSB1"
# the smallest positive float64, a guide scale's floor
_SMALLEST_SCALE = float(np.nextafter(0.0, 1.0))


def _check_magic(blob: bytes, magic: bytes, path) -> None:
    if len(blob) < len(magic):
        raise TruncatedFileError(f"{path}: file shorter than its magic number")
    if blob[: len(magic)] != magic:
        raise FormatError(
            f"{path}: bad magic {blob[:len(magic)]!r}, expected {magic!r}"
        )


def _take(blob: bytes, offset: int, nbytes: int, what: str, path) -> tuple[bytes, int]:
    end = offset + nbytes
    if end > len(blob):
        raise TruncatedFileError(
            f"{path}: truncated while reading {what} "
            f"(need {nbytes} bytes at offset {offset}, have {len(blob) - offset})"
        )
    return blob[offset:end], end


def _no_trailing(blob: bytes, offset: int, path) -> None:
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes after payload")


def _build(container, path, *args):
    """``container(*args)``, its ValidationError naming the file."""
    try:
        return container(*args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# HSC1 dense cube


def write_cube(cube: HyperCube, path) -> None:
    """Write a cube: magic, u32 height/width/bands, f64 wavelengths, f32 data."""
    _check_type(cube, HyperCube, "cube")
    with open(path, "wb") as fh:
        fh.write(MAGIC_CUBE)
        fh.write(struct.pack("<III", cube.height, cube.width, cube.bands))
        fh.write(np.ascontiguousarray(cube.wavelengths, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(cube.data, dtype="<f4").tobytes())


def read_cube(path) -> HyperCube:
    """Read an HSC1 cube. Round-trips :func:`write_cube` bit-exactly."""
    blob = Path(path).read_bytes()
    _check_magic(blob, MAGIC_CUBE, path)
    header, offset = _take(blob, 4, 12, "header", path)
    height, width, bands = struct.unpack("<III", header)
    if height < 1 or width < 1 or bands < 1:
        raise FormatError(f"{path}: empty dimensions {height}x{width}x{bands}")
    raw_wl, offset = _take(blob, offset, 8 * bands, "wavelengths", path)
    raw_data, offset = _take(
        blob, offset, 4 * height * width * bands, "pixel data", path
    )
    _no_trailing(blob, offset, path)
    wavelengths = np.frombuffer(raw_wl, dtype="<f8").astype(np.float64)
    data = (
        np.frombuffer(raw_data, dtype="<f4")
        .astype(np.float64)
        .reshape(height, width, bands)
    )
    return _build(HyperCube, path, data, wavelengths)


# ---------------------------------------------------------------------------
# Plain .npy arrays, the CLI's import and export form


def _load_npy(path) -> np.ndarray:
    """The array a .npy file holds; a pickled one raises FormatError."""
    try:
        return np.load(path)
    except ValueError as exc:
        raise FormatError(f"{path}: not a plain .npy array ({exc})") from None


def _save_npy(array, path) -> None:
    np.save(path, array)


# ---------------------------------------------------------------------------
# HSK1 clue set

def _clue_record_dtype(bands: int) -> np.dtype:
    return np.dtype([("row", "<u4"), ("col", "<u4"), ("spectrum", "<f4", (bands,))])


def write_clues(clues: ClueSet, path) -> None:
    """Write a clue set: header, f64 wavelengths, then (row, col, spectrum) records.

    Records are emitted in row-major position order, matching the in-memory
    alignment of ``clues.spectra``.
    """
    _check_type(clues, ClueSet, "clues")
    coords = clues.coordinates()
    records = np.empty(clues.count, dtype=_clue_record_dtype(clues.bands))
    records["row"] = coords[:, 0]
    records["col"] = coords[:, 1]
    records["spectrum"] = clues.spectra.astype("<f4")
    with open(path, "wb") as fh:
        fh.write(MAGIC_CLUES)
        fh.write(
            struct.pack("<IIII", clues.height, clues.width, clues.bands, clues.count)
        )
        fh.write(np.ascontiguousarray(clues.wavelengths, dtype="<f8").tobytes())
        fh.write(records.tobytes())


def read_clues(path) -> ClueSet:
    """Read an HSK1 clue set; records are re-sorted into row-major order."""
    blob = Path(path).read_bytes()
    _check_magic(blob, MAGIC_CLUES, path)
    header, offset = _take(blob, 4, 16, "header", path)
    height, width, bands, count = struct.unpack("<IIII", header)
    if height < 1 or width < 1 or bands < 1:
        raise FormatError(f"{path}: empty dimensions {height}x{width}x{bands}")
    raw_wl, offset = _take(blob, offset, 8 * bands, "wavelengths", path)
    record_dtype = _clue_record_dtype(bands)
    raw_records, offset = _take(
        blob, offset, record_dtype.itemsize * count, "clue records", path
    )
    _no_trailing(blob, offset, path)
    wavelengths = np.frombuffer(raw_wl, dtype="<f8").astype(np.float64)
    records = np.frombuffer(raw_records, dtype=record_dtype)
    rows = records["row"].astype(np.int64)
    cols = records["col"].astype(np.int64)
    if np.any(rows >= height) or np.any(cols >= width):
        raise FormatError(f"{path}: clue position outside the {height}x{width} grid")
    linear = rows * width + cols
    order = np.argsort(linear, kind="stable")
    linear = linear[order]
    if np.any(np.diff(linear) == 0):
        raise FormatError(f"{path}: duplicate clue positions")
    spectra = records["spectrum"].astype(np.float64)[order]
    mask = np.zeros((height, width), dtype=bool)
    mask[rows, cols] = True
    return _build(ClueSet, path, height, width, wavelengths, mask, spectra)


# ---------------------------------------------------------------------------
# HSB1 spectral basis


def write_basis(basis: SpectralBasis, path) -> None:
    """Write a basis: header, f64 wavelengths, singular values, column-major vectors."""
    _check_type(basis, SpectralBasis, "basis")
    bands, rank = basis.vectors.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC_BASIS)
        fh.write(struct.pack("<II", bands, rank))
        fh.write(np.ascontiguousarray(basis.wavelengths, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(basis.singular_values, dtype="<f8").tobytes())
        fh.write(np.asfortranarray(basis.vectors, dtype="<f8").tobytes(order="F"))


def read_basis(path) -> SpectralBasis:
    """Read an HSB1 basis. Round-trips :func:`write_basis` bit-exactly."""
    blob = Path(path).read_bytes()
    _check_magic(blob, MAGIC_BASIS, path)
    header, offset = _take(blob, 4, 8, "header", path)
    bands, rank = struct.unpack("<II", header)
    if bands < 1 or rank < 1:
        raise FormatError(f"{path}: empty dimensions {bands}x{rank}")
    if rank > bands:
        raise FormatError(f"{path}: rank {rank} exceeds band count {bands}")
    raw_wl, offset = _take(blob, offset, 8 * bands, "wavelengths", path)
    raw_sv, offset = _take(blob, offset, 8 * rank, "singular values", path)
    raw_vec, offset = _take(blob, offset, 8 * bands * rank, "basis vectors", path)
    _no_trailing(blob, offset, path)
    wavelengths = np.frombuffer(raw_wl, dtype="<f8").astype(np.float64)
    singular_values = np.frombuffer(raw_sv, dtype="<f8").astype(np.float64)
    vectors = np.frombuffer(raw_vec, dtype="<f8").reshape((bands, rank), order="F")
    return _build(
        SpectralBasis, path,
        wavelengths, np.ascontiguousarray(vectors), singular_values, str(path),
    )


# ---------------------------------------------------------------------------
# PGM guide (16-bit, big-endian samples per the Netpbm convention)


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def write_guide(guide: GuideImage, path) -> None:
    """Write a guide as 16-bit PGM plus a JSON sidecar with the linear scale.

    Negative values (read-noise excursions) clamp to zero on disk; the
    sidecar records ``scale`` such that linear = integer * scale.
    """
    _check_type(guide, GuideImage, "guide")
    values = np.maximum(guide.values, 0.0)
    peak = float(values.max())
    scale = max(peak / 65535.0, _SMALLEST_SCALE) if peak > 0 else 1.0
    if peak / scale > 65535.5:
        # below the normal range the step rounds to a multiple of the
        # smallest subnormal; round it up so the peak still fits 16 bits
        scale = float(np.nextafter(scale, np.inf))
    ints = np.clip(np.rint(values / scale), 0, 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{guide.width} {guide.height}\n65535\n".encode("ascii"))
        fh.write(ints.tobytes())
    _sidecar_path(path).write_text(
        json.dumps({"scale": scale}, sort_keys=True) + "\n", encoding="ascii"
    )


def _parse_netpbm_header(blob: bytes, magic: bytes, token_count: int, path):
    if blob[:2] != magic:
        raise FormatError(f"{path}: bad magic {blob[:2]!r}, expected {magic!r}")
    tokens: list[int] = []
    pos = 2
    while len(tokens) < token_count:
        if pos >= len(blob):
            raise TruncatedFileError(f"{path}: header ended early")
        ch = blob[pos : pos + 1]
        if ch == b"#":  # comment runs to end of line
            while pos < len(blob) and blob[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        if ch.isspace():
            pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        token = blob[start:pos]
        if not token.isdigit():
            raise FormatError(f"{path}: non-numeric header token {token!r}")
        tokens.append(int(token))
    # exactly one whitespace byte separates the header from the raster
    if pos >= len(blob) or not blob[pos : pos + 1].isspace():
        raise TruncatedFileError(f"{path}: raster missing after header")
    return tokens, pos + 1


def read_guide(path) -> GuideImage:
    """Read a PGM guide; applies the sidecar scale when one is present."""
    blob = Path(path).read_bytes()
    (width, height, maxval), offset = _parse_netpbm_header(blob, b"P5", 3, path)
    if width < 1 or height < 1:
        raise FormatError(f"{path}: empty dimensions {width}x{height}")
    if maxval < 1 or maxval > 65535:
        raise FormatError(f"{path}: unsupported maxval {maxval}")
    sample_dtype = ">u2" if maxval > 255 else "u1"
    nbytes = height * width * np.dtype(sample_dtype).itemsize
    raw, offset = _take(blob, offset, nbytes, "raster", path)
    _no_trailing(blob, offset, path)
    ints = np.frombuffer(raw, dtype=sample_dtype).reshape(height, width)
    scale = 1.0
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        try:
            scale = float(json.loads(sidecar.read_text(encoding="ascii"))["scale"])
        except (ValueError, TypeError, KeyError) as exc:
            raise FormatError(
                f"{sidecar}: not a guide sidecar with a numeric scale ({exc!r})"
            ) from None
    return _build(GuideImage, path, ints.astype(np.float64) * scale)


# ---------------------------------------------------------------------------
# PBM mask (1 bit = sampled pixel)


def write_mask(mask, path) -> None:
    """Write a boolean mask as binary PBM, rows padded to whole bytes."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValidationError(f"mask must be 2-dimensional, got shape {mask.shape}")
    height, width = mask.shape
    packed = np.packbits(mask, axis=1)
    with open(path, "wb") as fh:
        fh.write(f"P4\n{width} {height}\n".encode("ascii"))
        fh.write(packed.tobytes())


def read_mask(path) -> np.ndarray:
    """Read a binary PBM mask back to a boolean array."""
    blob = Path(path).read_bytes()
    (width, height), offset = _parse_netpbm_header(blob, b"P4", 2, path)
    if width < 1 or height < 1:
        raise FormatError(f"{path}: empty dimensions {width}x{height}")
    row_bytes = (width + 7) // 8
    raw, offset = _take(blob, offset, height * row_bytes, "raster", path)
    _no_trailing(blob, offset, path)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(height, row_bytes)
    bits = np.unpackbits(packed, axis=1)[:, :width]
    return bits.astype(bool)


# ---------------------------------------------------------------------------
# JSON objects: reports, configs and dimension models


def _read_json_object(path, what: str, error=FormatError) -> dict:
    """The JSON object a UTF-8 file holds, or ``error`` naming the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        # not UTF-8, not JSON, or an integer too long to convert
        except ValueError as exc:
            raise error(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return payload


def _write_json_object(payload: dict, path) -> None:
    """Write ``payload`` as ASCII JSON: sorted keys, indent 2, final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


_MODEL_FIELDS = tuple(spec.name for spec in fields(DimensionModel))


def write_model(model: DimensionModel, path) -> None:
    """Write a dimension model as JSON with named coefficients."""
    _check_type(model, DimensionModel, "model")
    _write_json_object({name: getattr(model, name) for name in _MODEL_FIELDS}, path)


def read_model(path) -> DimensionModel:
    """Read a dimension model written by :func:`write_model`."""
    payload = _read_json_object(path, "model file")
    missing = [name for name in _MODEL_FIELDS if name not in payload]
    if missing:
        raise ValidationError(f"{path}: model file missing fields {missing}")
    return _build(DimensionModel, path, *(payload[name] for name in _MODEL_FIELDS))


# ---------------------------------------------------------------------------
# CSV plot data


def _csv_text(header, rows) -> str:
    """CSV text of a header and rows of cells; a bool writes 1 or 0."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [int(cell) if isinstance(cell, bool) else cell for cell in row] for row in rows
    )
    return text.getvalue()
