"""Config parsing, typed extraction, and the DPMF snapshot format."""

import math
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dpmflow import (ConfigError, Domain, PhysicalField, RunConfig,
                     read_snapshot, write_snapshot)
from dpmflow.config import (build_domain, build_forcing, build_initial,
                            build_regularization, build_solver_params,
                            build_stream_initial)
from dpmflow.snapshots import atomic_open

GOOD = """\
# single-mode decay study
domain.dim = 2
domain.n = 16, 16
solver.nu = 0.01
solver.alpha = 1.5
solver.dt = 0.001
solver.t_end = 1.0
initial.kind = single_mode
initial.axis = 0
initial.wavenumber = 1
diagnostics.p_list = 2, inf
"""


class TestParsing:
    def test_round_trip_is_lossless(self):
        cfg = RunConfig.parse(GOOD)
        again = RunConfig.parse(cfg.serialize())
        assert again == cfg
        assert RunConfig.parse(again.serialize()) == again

    def test_comments_and_blank_lines_ignored(self):
        cfg = RunConfig.parse("\n# comment\na.b = 1  # trailing\n\n")
        assert cfg.values == {"a.b": "1"}

    @pytest.mark.parametrize("text,fragment", [
        ("novalue\n", "line 1"),
        ("a.b = 1\na.b = 2\n", "line 2: duplicate"),
        ("Bad.Key = 1\n", "malformed key"),
        ("a.b =\n", "empty value"),
    ])
    def test_malformed_configs_name_the_line(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            RunConfig.parse(text)

    def test_typed_accessors_report_the_key(self):
        cfg = RunConfig.parse("a.x = not_a_number\n")
        with pytest.raises(ConfigError, match="a.x"):
            cfg.get_float("a.x")
        with pytest.raises(ConfigError, match="missing"):
            cfg.get_float("a.y")
        with pytest.raises(ConfigError, match="a.x"):
            cfg.get_bool("a.x")

    def test_float_list_with_inf(self):
        cfg = RunConfig.parse("d.p = 1, 2, inf\n")
        assert cfg.get_float_list("d.p") == [1.0, 2.0, math.inf]


class TestBuilders:
    def test_domain_and_params(self):
        cfg = RunConfig.parse(GOOD)
        domain = build_domain(cfg)
        assert domain.n == (16, 16)
        params = build_solver_params(cfg)
        assert params.nu == 0.01 and params.scheme == "ifrk4"

    def test_domain_errors_become_config_errors(self):
        cfg = RunConfig.parse("domain.dim = 2\ndomain.n = 15, 16\n")
        with pytest.raises(ConfigError):
            build_domain(cfg)

    def test_single_mode_initial(self):
        cfg = RunConfig.parse(GOOD)
        domain = build_domain(cfg)
        field, t0 = build_initial(cfg, domain)
        assert t0 == 0.0
        x = domain.grid
        assert np.abs(field.values - np.sin(x[0])).max() < 1e-15

    def test_wavevector_initial(self):
        cfg = RunConfig.parse(
            "domain.dim = 2\ndomain.n = 16,16\ninitial.kind = single_mode\n"
            "initial.wavevector = 1, 1\ninitial.amplitude = 0.1\n")
        domain = build_domain(cfg)
        field, _ = build_initial(cfg, domain)
        x = domain.grid
        assert np.abs(field.values - 0.1 * np.sin(x[0] + x[1])).max() < 1e-15

    def test_random_initial_reproducible(self):
        text = ("domain.dim = 2\ndomain.n = 16,16\ninitial.kind = random\n"
                "initial.seed = 7\ninitial.l2_norm = 2.0\n")
        d = build_domain(RunConfig.parse(text))
        a, _ = build_initial(RunConfig.parse(text), d)
        b, _ = build_initial(RunConfig.parse(text), d)
        assert np.array_equal(a.values, b.values)

    def test_file_initial_restores_time(self, tmp_path):
        domain = Domain((16, 16))
        field = PhysicalField(domain, np.cos(sum(domain.grid)))
        path = tmp_path / "state.dpmf"
        write_snapshot(path, 2.5, field)
        cfg = RunConfig.parse(
            f"domain.dim = 2\ndomain.n = 16,16\ninitial.kind = file\n"
            f"initial.path = {path}\n")
        restored, t0 = build_initial(cfg, domain)
        assert t0 == 2.5
        assert np.array_equal(restored.values, field.values)

    def test_file_initial_grid_mismatch(self, tmp_path):
        domain = Domain((16, 16))
        other = Domain((32, 32))
        path = tmp_path / "state.dpmf"
        write_snapshot(path, 0.0, PhysicalField(other, np.zeros(other.n)))
        cfg = RunConfig.parse(
            f"domain.dim = 2\ndomain.n = 16,16\ninitial.kind = file\n"
            f"initial.path = {path}\n")
        with pytest.raises(ConfigError, match="grid"):
            build_initial(cfg, domain)

    def test_forcing_none_and_mode(self):
        cfg = RunConfig.parse(GOOD)
        domain = build_domain(cfg)
        assert build_forcing(cfg, domain) is None
        cfg2 = RunConfig.parse(GOOD + "forcing.kind = single_mode\n"
                               "forcing.axis = 0\nforcing.amplitude = 0.5\n")
        f = build_forcing(cfg2, domain)
        assert f is not None
        assert abs(f.mean) < 1e-15

    def test_regularization_builder(self):
        cfg = RunConfig.parse("blowup.mode = quasilinear\nblowup.nu = 0.1\n")
        reg = build_regularization(cfg)
        assert reg.mode == "quasilinear" and reg.nu == 0.1
        with pytest.raises(ConfigError):
            build_regularization(RunConfig.parse("blowup.mode = spectral\n"
                                                 "blowup.alpha = 1.3\n"))

    def test_stream_initial(self):
        cfg = RunConfig.parse("blowup.n = 64\nblowup.amplitude = 2.0\n")
        w0, start_time, start_g = build_stream_initial(cfg)
        assert (start_time, start_g) == (0.0, 0.0)
        assert w0.domain.n == (64,)
        assert w0.values.max() == pytest.approx(2.0)


class TestSnapshots:
    def test_exact_byte_layout(self, tmp_path):
        domain = Domain((8, 8), buoyancy_axis=1)
        values = np.arange(64, dtype=np.float64).reshape(8, 8) / 7.0
        values -= values.mean()
        path = tmp_path / "s.dpmf"
        write_snapshot(path, 1.25, PhysicalField(domain, values))
        raw = path.read_bytes()
        expected = (b"DPMF" + struct.pack("<IBB", 1, 2, 1)
                    + struct.pack("<2Q", 8, 8) + struct.pack("<d", 1.25)
                    + values.astype("<f8").tobytes())
        assert raw == expected

    def test_snapshot_round_trip(self, tmp_path):
        domain = Domain((16,))
        values = np.sin(domain.grid[0]) * 3.0
        path = tmp_path / "s.dpmf"
        write_snapshot(path, 0.5, PhysicalField(domain, values))
        t, field, g = read_snapshot(path)
        assert t == 0.5 and g is None
        assert np.array_equal(field.values, values)
        assert field.domain.n == (16,)

    def test_checkpoint_carries_g(self, tmp_path):
        domain = Domain((16,))
        path = tmp_path / "c.dpmf"
        write_snapshot(path, 1.0, PhysicalField(domain, np.sin(domain.grid[0])), g=0.75)
        t, _, g = read_snapshot(path)
        assert t == 1.0 and g == 0.75

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        domain = Domain((16,))
        path = tmp_path / "s.dpmf"
        write_snapshot(path, 0.5, PhysicalField(domain, np.sin(domain.grid[0])))
        old = path.read_bytes()

        class Broken:  # the header is written, then the values raise
            def __init__(self):
                self.domain = domain

            @property
            def values(self):
                raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError, match="disk gone"):
            write_snapshot(path, 1.0, Broken())
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["s.dpmf"]

    def test_atomic_open_replaces_only_on_success(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        with pytest.raises(ValueError):
            with atomic_open(path, encoding="utf-8") as fh:
                fh.write("half a ")
                raise ValueError("midway")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]
        with atomic_open(path, encoding="utf-8") as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_read_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dpmf"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            read_snapshot(path)

    def test_read_rejects_size_mismatch(self, tmp_path):
        domain = Domain((16,))
        path = tmp_path / "t.dpmf"
        write_snapshot(path, 0.0, PhysicalField(domain, np.zeros(16)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(ValueError, match="size"):
            read_snapshot(path)

    def test_read_rejects_every_truncated_header(self, tmp_path):
        # a 2D header is 10 + 2 * 8 + 8 = 34 bytes: magic to axis, n, time
        path = tmp_path / "t.dpmf"
        write_snapshot(path, 0.0, PhysicalField(Domain((8, 8)), np.zeros((8, 8))))
        raw = path.read_bytes()
        for length in range(34):
            path.write_bytes(raw[:length])
            with pytest.raises(ValueError, match="truncated"):
                read_snapshot(path)

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["2d", "1d"]), cut=st.none() | st.integers(0, 600),
           patches=st.lists(st.tuples(st.integers(-48, 47), st.integers(0, 255)), max_size=4))
    @example(kind="2d", cut=None, patches=list(enumerate(struct.pack("<d", math.nan), 26)))
    @example(kind="1d", cut=None, patches=list(enumerate(struct.pack("<d", math.inf), -8)))
    def test_read_of_a_damaged_file_fails_or_matches_its_header(self, tmp_path, kind, cut,
                                                                 patches):
        # a 2D snapshot (time at bytes 26-33) or a 1D checkpoint (g in the
        # last 8), cut short or with some header or tail bytes overwritten
        path = tmp_path / "f.dpmf"
        if kind == "2d":
            values = np.arange(64.0).reshape(8, 8)
            write_snapshot(path, 0.5, PhysicalField(Domain((8, 8)), values - values.mean()))
        else:
            d = Domain((16,))
            write_snapshot(path, 1.0, PhysicalField(d, np.sin(d.grid[0])), g=0.75)
        raw = bytearray(path.read_bytes())
        for at, byte in patches:
            raw[at] = byte
        if cut is not None:
            raw = raw[:cut % (len(raw) + 1)]
        path.write_bytes(bytes(raw))
        try:
            t, field, g = read_snapshot(path)
        except (ValueError, OSError):
            return
        dim = raw[8]
        assert field.values.shape == struct.unpack_from(f"<{dim}Q", raw, 10)
        assert math.isfinite(t)
        assert g is None or math.isfinite(g)

    def test_read_rejects_out_of_range_buoyancy_axis(self, tmp_path):
        # a 2D snapshot whose header byte names buoyancy axis 2
        path = tmp_path / "axis.dpmf"
        write_snapshot(path, 0.0, PhysicalField(Domain((8, 8)), np.zeros((8, 8))))
        raw = bytearray(path.read_bytes())
        raw[9] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="buoyancy axis"):
            read_snapshot(path)
