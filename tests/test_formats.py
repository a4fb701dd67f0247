import csv
import json
import re
import struct

import numpy as np
import pytest

from conftest import random_cube, scatter_mask, wavelengths_for
from hypercolor import (
    ConfigError,
    FormatError,
    GuideImage,
    HyperCube,
    TruncatedFileError,
    ValidationError,
    cube_to_clues,
    export_plotdata,
    learn_basis,
    load_config,
    read_basis,
    read_clues,
    read_cube,
    read_guide,
    read_mask,
    read_model,
    write_basis,
    write_clues,
    write_cube,
    write_guide,
    write_mask,
)


def names(path, fault=""):
    """A pattern for an error that starts with ``path`` and tells ``fault``."""
    return f"^{re.escape(str(path))}: .*{fault}"


def f32_cube(height, width, bands, seed=0):
    """Random cube whose values are exactly float32-representable."""
    rng = np.random.default_rng(seed)
    data = (rng.random((height, width, bands)) + 0.01).astype(np.float32)
    return HyperCube(data.astype(np.float64), wavelengths_for(bands))


class TestCubeFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        cube = f32_cube(4, 5, 3)
        path = tmp_path / "c.hsc"
        write_cube(cube, path)
        back = read_cube(path)
        assert np.array_equal(back.data, cube.data)
        assert np.array_equal(back.wavelengths, cube.wavelengths)

    def test_write_is_deterministic(self, tmp_path):
        cube = f32_cube(3, 3, 4)
        a, b = tmp_path / "a.hsc", tmp_path / "b.hsc"
        write_cube(cube, a)
        write_cube(cube, b)
        assert a.read_bytes() == b.read_bytes()

    def test_layout_matches_declared_format(self, tmp_path):
        # independent struct-level decode of the written bytes
        cube = HyperCube(np.full((2, 2, 3), 0.5), [400.0, 550.0, 700.0])
        path = tmp_path / "c.hsc"
        write_cube(cube, path)
        blob = path.read_bytes()
        assert blob[:4] == b"HSC1"
        assert struct.unpack_from("<III", blob, 4) == (2, 2, 3)
        wl = struct.unpack_from("<3d", blob, 16)
        assert wl == (400.0, 550.0, 700.0)
        payload = struct.unpack_from("<12f", blob, 40)
        assert payload == (0.5,) * 12
        assert len(blob) == 40 + 48

    def test_bad_magic_is_format_error(self, tmp_path):
        path = tmp_path / "c.hsc"
        write_cube(f32_cube(2, 2, 2), path)
        blob = bytearray(path.read_bytes())
        blob[3] = ord("0")  # HSC1 -> HSC0
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_cube(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "c.hsc"
        write_cube(f32_cube(3, 3, 3), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TruncatedFileError):
            read_cube(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "c.hsc"
        write_cube(f32_cube(2, 2, 2), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            read_cube(path)

    def test_nan_payload_is_validation_error(self, tmp_path):
        path = tmp_path / "c.hsc"
        blob = (
            b"HSC1"
            + struct.pack("<III", 1, 1, 2)
            + struct.pack("<2d", 400.0, 500.0)
            + struct.pack("<2f", float("nan"), 1.0)
        )
        path.write_bytes(blob)
        with pytest.raises(ValidationError):
            read_cube(path)

    def test_non_increasing_wavelengths_rejected_on_write(self, tmp_path):
        with pytest.raises(ValidationError):
            HyperCube(np.ones((2, 2, 2)), [500.0, 400.0])


    def test_decreasing_wavelengths_name_the_file(self, tmp_path):
        path = tmp_path / "c.hsc"
        write_cube(f32_cube(2, 2, 3), path)
        blob = bytearray(path.read_bytes())
        blob[16:40] = np.array([600.0, 500.0, 400.0], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match=names(path, "increasing")):
            read_cube(path)


class TestClueFormat:
    def test_round_trip(self, tmp_path):
        cube = f32_cube(6, 7, 4, seed=5)
        clues = cube_to_clues(cube, scatter_mask(6, 7, 0.3, seed=1))
        path = tmp_path / "c.hsk"
        write_clues(clues, path)
        back = read_clues(path)
        assert np.array_equal(back.mask, clues.mask)
        assert np.array_equal(back.spectra, clues.spectra)
        assert np.array_equal(back.wavelengths, clues.wavelengths)

    def test_negative_spectra_survive(self, tmp_path):
        from hypercolor import ClueSet

        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 1] = True
        spectra = np.array([[-0.25, 0.5]], dtype=np.float32).astype(np.float64)
        clues = ClueSet(2, 2, wavelengths_for(2), mask, spectra)
        path = tmp_path / "c.hsk"
        write_clues(clues, path)
        assert read_clues(path).spectra[0, 0] == -0.25

    def _raw_clue_file(self, path, records, height=4, width=4, bands=2):
        blob = b"HSK1" + struct.pack("<IIII", height, width, bands, len(records))
        blob += struct.pack("<2d", 400.0, 500.0)
        for row, col, spectrum in records:
            blob += struct.pack("<II", row, col)
            blob += struct.pack(f"<{bands}f", *spectrum)
        path.write_bytes(blob)

    def test_unsorted_records_resorted_row_major(self, tmp_path):
        path = tmp_path / "c.hsk"
        self._raw_clue_file(
            path,
            [(2, 1, (5.0, 6.0)), (0, 3, (1.0, 2.0)), (1, 0, (3.0, 4.0))],
        )
        clues = read_clues(path)
        assert clues.coordinates().tolist() == [[0, 3], [1, 0], [2, 1]]
        assert clues.spectra[0].tolist() == [1.0, 2.0]
        assert clues.spectra[2].tolist() == [5.0, 6.0]

    def test_duplicate_positions_rejected(self, tmp_path):
        path = tmp_path / "c.hsk"
        self._raw_clue_file(path, [(1, 1, (1.0, 1.0)), (1, 1, (2.0, 2.0))])
        with pytest.raises(FormatError):
            read_clues(path)

    def test_out_of_grid_position_rejected(self, tmp_path):
        path = tmp_path / "c.hsk"
        self._raw_clue_file(path, [(4, 0, (1.0, 1.0))])
        with pytest.raises(FormatError):
            read_clues(path)

    def test_nan_spectrum_names_the_file(self, tmp_path):
        path = tmp_path / "c.hsk"
        self._raw_clue_file(path, [(1, 1, (np.nan, 1.0))])
        with pytest.raises(ValidationError, match=names(path, "non-finite")):
            read_clues(path)

    def test_truncated_records(self, tmp_path):
        cube = f32_cube(4, 4, 3)
        clues = cube_to_clues(cube, scatter_mask(4, 4, 0.5))
        path = tmp_path / "c.hsk"
        write_clues(clues, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(TruncatedFileError):
            read_clues(path)


class TestBasisFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        basis = learn_basis(random_cube(6, 6, 5, seed=2), rank=3)
        path = tmp_path / "b.hsb"
        write_basis(basis, path)
        back = read_basis(path)
        assert np.array_equal(back.vectors, basis.vectors)
        assert np.array_equal(back.singular_values, basis.singular_values)
        assert np.array_equal(back.wavelengths, basis.wavelengths)

    def test_vectors_stored_column_major(self, tmp_path):
        basis = learn_basis(random_cube(5, 5, 4, seed=3), rank=2)
        path = tmp_path / "b.hsb"
        write_basis(basis, path)
        blob = path.read_bytes()
        bands, rank = struct.unpack_from("<II", blob, 4)
        offset = 12 + 8 * bands + 8 * rank
        flat = np.frombuffer(blob[offset : offset + 8 * bands * rank], dtype="<f8")
        assert np.array_equal(flat[:bands], basis.vectors[:, 0])

    @pytest.mark.parametrize("wavelengths, message", [
        ([400.0, np.nan, 600.0, 700.0], "non-finite"),
        ([700.0, 600.0, 500.0, 400.0], "increasing"),
    ])
    def test_bad_wavelengths_rejected(self, tmp_path, wavelengths, message):
        path = tmp_path / "b.hsb"
        write_basis(learn_basis(random_cube(5, 5, 4, seed=3)), path)
        blob = bytearray(path.read_bytes())
        blob[12 : 12 + 8 * 4] = np.asarray(wavelengths, dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match=message):
            read_basis(path)

    def test_vectors_not_orthonormal_name_the_file(self, tmp_path):
        basis = learn_basis(random_cube(5, 5, 4, seed=3), rank=2)
        path = tmp_path / "b.hsb"
        write_basis(basis, path)
        blob = bytearray(path.read_bytes())
        blob[12 + 8 * 4 + 8 * 2:] = (2.0 * basis.vectors).astype("<f8").tobytes(order="F")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match=names(path, "orthonormal")):
            read_basis(path)

    def test_rank_above_bands_rejected(self, tmp_path):
        path = tmp_path / "b.hsb"
        blob = b"HSB1" + struct.pack("<II", 2, 3) + b"\x00" * 200
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_basis(path)


class TestGuideFormat:
    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(7)
        guide = GuideImage(rng.random((9, 11)) * 3.0)
        path = tmp_path / "g.pgm"
        write_guide(guide, path)
        back = read_guide(path)
        scale = guide.values.max() / 65535.0
        assert np.max(np.abs(back.values - guide.values)) <= scale / 2 + 1e-12
        assert (tmp_path / "g.pgm.json").exists()

    def test_sidecar_restores_linear_range(self, tmp_path):
        guide = GuideImage(np.array([[0.0, 131.07], [65.535, 131.07]]))
        path = tmp_path / "g.pgm"
        write_guide(guide, path)
        meta = json.loads((tmp_path / "g.pgm.json").read_text())
        assert meta["scale"] == pytest.approx(131.07 / 65535.0)
        back = read_guide(path)
        assert back.values[0, 1] == pytest.approx(131.07, rel=1e-12)

    @pytest.mark.parametrize(
        "values", [[[1e-320, 5e-321]], [[5e-324]], [[5e-324 * 70_000, 1e-323]]]
    )
    def test_subnormal_peak_keeps_a_positive_scale(self, tmp_path, values):
        path = tmp_path / "g.pgm"
        write_guide(GuideImage(np.array(values)), path)
        scale = json.loads((tmp_path / "g.pgm.json").read_text())["scale"]
        assert 0.0 < scale < np.inf
        # these values are whole multiples of the scale, so they read back exactly
        assert np.array_equal(read_guide(path).values, np.array(values))

    def test_negative_values_clamp_on_disk(self, tmp_path):
        guide = GuideImage(np.array([[-0.05, 1.0]]))
        path = tmp_path / "g.pgm"
        write_guide(guide, path)
        assert read_guide(path).values[0, 0] == 0.0

    def test_reads_plain_8bit_pgm(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        guide = read_guide(path)
        assert guide.values[0, 1] == 128.0 and guide.values[1, 0] == 255.0

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n# made by hand\n2 1\n255\n" + bytes([7, 9]))
        assert read_guide(path).values.tolist() == [[7.0, 9.0]]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            read_guide(path)

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n4 4\n65535\n" + b"\x00" * 10)
        with pytest.raises(TruncatedFileError):
            read_guide(path)


class TestMaskFormat:
    @pytest.mark.parametrize("width", [8, 13, 16, 1])
    def test_round_trip_exact(self, tmp_path, width):
        mask = scatter_mask(6, width, 0.4, seed=width)
        path = tmp_path / "m.pbm"
        write_mask(mask, path)
        assert np.array_equal(read_mask(path), mask)

    def test_rows_padded_to_bytes(self, tmp_path):
        mask = np.ones((2, 3), dtype=bool)
        path = tmp_path / "m.pbm"
        write_mask(mask, path)
        blob = path.read_bytes()
        header_end = blob.index(b"\n", blob.index(b"\n") + 1) + 1
        assert len(blob) - header_end == 2  # one byte per 3-bit row

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_mask(np.ones((2, 2, 2), dtype=bool), tmp_path / "m.pbm")

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.pbm"
        write_mask(np.ones((4, 9), dtype=bool), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(TruncatedFileError):
            read_mask(path)


NOT_JSON_OBJECTS = {"not JSON": b"{'rate': 0.1}", "not UTF-8": b"\xff\xfe{}",
                    "not an object": b"[1, 2]"}


class TestJsonObjects:
    @pytest.mark.parametrize("content", NOT_JSON_OBJECTS.values(), ids=NOT_JSON_OBJECTS)
    def test_model_file_is_a_format_error(self, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(FormatError, match=names(path)):
            read_model(path)

    @pytest.mark.parametrize("content", NOT_JSON_OBJECTS.values(), ids=NOT_JSON_OBJECTS)
    def test_config_file_is_a_config_error(self, tmp_path, content):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=names(path)):
            load_config(path, env={})


class TestPlotDataCsv:
    def test_label_with_comma_quote_and_newline_round_trips(self, tmp_path):
        label = 'scene, "b"\nside'
        scores = {"psnr_db": 30.0, "ssim": 0.5, "gfc": 0.9, "ssv": 0.1, "emd": 0.01,
                  "wall_ms": 0.0}
        row = {"image": label, "pattern": "random", "rate": 0.1, "t_exposure": 1.0,
               "dim": None, "metrics": scores}
        path = tmp_path / "plot.csv"
        export_plotdata({"kind": "sweep", "rows": [row]}, path)
        with open(path, newline="", encoding="utf-8") as handle:
            _, back = list(csv.reader(handle))
        assert back == [label, "random", "0.1", "1.0", "",
                        "30.0", "0.5", "0.9", "0.1", "0.01", "0.0"]
