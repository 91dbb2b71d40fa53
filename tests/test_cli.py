"""CLI surface: subcommands, config parsing, output formats, exit codes."""

import dataclasses
import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import stereosr
from stereosr import cli
from stereosr import images
from stereosr import verify
from stereosr.blocks import LskaBranch
from stereosr.images import ImageBuffer, load_png, save_png
from stereosr.model import (
    MAX_BLOCKS, MAX_BRANCHES, MAX_COST_VOLUME, MAX_WIDTH, ModelConfig, WeightStore,
    check_cost_volume, init_model, layout, save_weights,
)
from stereosr.tensor import ShapeError, Tensor
from stereosr.train import StepLog, TrainingDivergedError
from stereosr.transport import MAX_SINKHORN_ITERS
from _synthetic import make_hr_pair

TINY = ModelConfig(n_blocks=1, width=8, scale=4, lska_branches=(LskaBranch(3, 3, 1),))


@pytest.fixture
def png_pair(tmp_path):
    hr = make_hr_pair(height=24, width=48)
    left, right = tmp_path / "left.png", tmp_path / "right.png"
    save_png(ImageBuffer.from_tensor(hr.left), left)
    save_png(ImageBuffer.from_tensor(hr.right), right)
    return left, right


class TestConfigFile:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text(
            "# comment\n"
            "n_blocks = 2\n"
            "width = 16\n"
            "scale = 2\n"
            "sinkhorn_iters = 5\n"
            "share_view_weights = false\n"
            "single_interaction = true\n"
            "global_residual = true\n"
            "lska_branches = 3:3:1, 5:7:2\n"
        )
        cfg = cli.parse_config_file(path)
        assert cfg == ModelConfig(
            n_blocks=2, width=16, scale=2, sinkhorn_iters=5,
            share_view_weights=False, single_interaction=True, global_residual=True,
            lska_branches=(LskaBranch(3, 3, 1), LskaBranch(5, 7, 2)),
        )

    def test_missing_keys_use_defaults(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("width = 24\n")
        cfg = cli.parse_config_file(path)
        assert cfg.width == 24
        assert cfg.n_blocks == 32

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("depth = 3\n")
        with pytest.raises(cli.UsageError, match="unknown config key"):
            cli.parse_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("width = many\n")
        with pytest.raises(cli.UsageError, match="integer"):
            cli.parse_config_file(path)

    def test_bad_branch_rejected(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("lska_branches = 3:3\n")
        with pytest.raises(cli.UsageError, match="branch"):
            cli.parse_config_file(path)

    @pytest.mark.parametrize("over, at_bound", [
        ("sinkhorn_iters = 1001", "sinkhorn_iters = 1000"),
        ("lska_branches = 3:3:63", "lska_branches = 3:3:62"),   # fields 129 and 127
        (f"n_blocks = {MAX_BLOCKS + 1}", f"n_blocks = {MAX_BLOCKS}"),
        (f"width = {MAX_WIDTH + 2}", f"width = {MAX_WIDTH}"),
        ("width = 10000000", f"width = {MAX_WIDTH}"),
        ("lska_branches = " + ", ".join(["3:3:1"] * (MAX_BRANCHES + 1)),
         "lska_branches = " + ", ".join(["3:3:1"] * MAX_BRANCHES)),
    ], ids=["sinkhorn_iters", "effective_field", "n_blocks", "width", "huge_width",
            "branch_count"])
    def test_resource_bound_is_usage_error(self, tmp_path, capsys, over, at_bound):
        path = tmp_path / "model.cfg"
        path.write_text(at_bound + "\n")
        cli.parse_config_file(path)
        path.write_text(over + "\n")
        code = cli.main([
            "overfit", "--left", "l.png", "--right", "r.png", "--config", str(path),
            "--steps", "1", "--out", str(tmp_path / "fit.msin"),
        ])
        assert code == cli.EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err


    def test_non_utf8_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "model.cfg"
        path.write_bytes(b"width = 16\n# \xff\n")
        with pytest.raises(cli.UsageError, match="not UTF-8"):
            cli.parse_config_file(path)
        code = cli.main([
            "overfit", "--left", "l.png", "--right", "r.png", "--config", str(path),
            "--steps", "1", "--out", str(tmp_path / "fit.msin"),
        ])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err


class TestMetricsCommand:
    def test_identical_images(self, png_pair, capsys):
        left, _ = png_pair
        code = cli.main(["metrics", "--ref", str(left), "--test", str(left)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PSNR 100.00" in out
        assert "SSIM 1.0000" in out

    def test_different_images(self, png_pair, capsys):
        left, right = png_pair
        code = cli.main(["metrics", "--ref", str(left), "--test", str(right)])
        out = capsys.readouterr().out
        assert code == 0
        psnr_value = float(out.splitlines()[0].split()[1])
        assert psnr_value < 100.0

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = cli.main(["metrics", "--ref", str(tmp_path / "no.png"),
                         "--test", str(tmp_path / "no.png")])
        assert code == cli.EXIT_IO

    def test_sizes_differ_is_usage_error(self, uneven_pair, capsys):
        left, right = uneven_pair
        code = cli.main(["metrics", "--ref", str(left), "--test", str(right)])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: shape mismatch: (1, 3, 8, 12) vs (1, 3, 8, 16)"
        ]

    def test_smaller_than_ssim_window_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.png"
        save_png(ImageBuffer.from_tensor(Tensor(np.full((1, 3, 4, 4), 0.5, np.float32))), path)
        code = cli.main(["metrics", "--ref", str(path), "--test", str(path)])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: image 4x4 smaller than the 11x11 window"
        ]


class TestSinkhornDemoCommand:
    def test_converged_violations_small(self, capsys):
        code = cli.main(["sinkhorn-demo", "--width", "4", "--iters", "200", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        values = {}
        for line in out.splitlines():
            if line.startswith("max "):
                key = line.split(":")[0]
                values[key] = float(line.split(":")[1])
        assert values["max row-sum violation"] < 1e-5
        assert values["max col-sum violation"] < 1e-5


def _chunk(ctype, data):
    return struct.pack(">I", len(data)) + ctype + data + struct.pack(">I", zlib.crc32(ctype + data))


class TestInferCommand:
    def test_writes_upscaled_pair(self, png_pair, tmp_path, capsys):
        left, right = png_pair
        cfg = ModelConfig(n_blocks=1, width=8, scale=4, lska_branches=(LskaBranch(3, 3, 1),))
        weights = tmp_path / "model.msin"
        save_weights(init_model(cfg, seed=0), weights)
        out_dir = tmp_path / "out"
        code = cli.main([
            "infer", "--left", str(left), "--right", str(right),
            "--weights", str(weights), "--out-dir", str(out_dir),
        ])
        assert code == 0
        for name in ("left_sr.png", "right_sr.png"):
            buf = load_png(out_dir / name)
            assert (buf.height, buf.width) == (24 * 4, 48 * 4)

    def test_scale_mismatch_is_usage_error(self, png_pair, tmp_path):
        left, right = png_pair
        cfg = ModelConfig(n_blocks=1, width=8, scale=2, lska_branches=(LskaBranch(3, 3, 1),))
        weights = tmp_path / "model.msin"
        save_weights(init_model(cfg, seed=0), weights)
        code = cli.main([
            "infer", "--left", str(left), "--right", str(right),
            "--weights", str(weights), "--out-dir", str(tmp_path / "o"), "--scale", "4",
        ])
        assert code == cli.EXIT_USAGE

    def test_oversized_png_is_io_error(self, tmp_path, capsys):
        # 4097 x 4097 pixels is over the decoder's limit; no pixel data needed
        ihdr = struct.pack(">IIBBBBB", 4097, 4097, 8, 2, 0, 0, 0)
        big = tmp_path / "big.png"
        big.write_bytes(b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", b"x")
                        + _chunk(b"IEND", b""))
        weights = tmp_path / "model.msin"
        save_weights(init_model(TINY, seed=0), weights)
        code = cli.main([
            "infer", "--left", str(big), "--right", str(big),
            "--weights", str(weights), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == cli.EXIT_IO
        assert "image size" in capsys.readouterr().err

    def test_corrupt_weights_is_io_error(self, png_pair, tmp_path):
        left, right = png_pair
        bad = tmp_path / "bad.msin"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = cli.main([
            "infer", "--left", str(left), "--right", str(right),
            "--weights", str(bad), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == cli.EXIT_IO


def _without(store, drop):
    return WeightStore(store.config, [(n, t) for n, t in store.items() if n != drop])


def _with_extra(store):
    return WeightStore(store.config, [*store.items(), ("extra.weight", Tensor(np.zeros((1, 1, 1, 1))))])


def _misshapen(store):
    return WeightStore(store.config, [
        (n, Tensor(np.zeros((1, 13, 1, 1))) if n == "head.bias" else t) for n, t in store.items()
    ])


def _set_word(offset, value):
    # overwrite one u32 of the header: n_blocks and width follow magic and
    # version (offsets 8 and 12), the first branch triple follows four config
    # words (offset 24), and TINY's sinkhorn_iters follows its one triple
    # (offset 36)
    return lambda blob: blob[:offset] + value.to_bytes(4, "little") + blob[offset + 4:]


def _bad_utf8_name(blob):
    return blob.replace(b"intro.weight", b"\xffntro.weight", 1)


def _first_dims(*dims):
    # overwrite the four u32 dims of the first tensor, intro.weight, which
    # follow its name and its rank byte
    def mutate(blob):
        at = blob.index(b"intro.weight") + len(b"intro.weight") + 1
        return blob[:at] + struct.pack("<4I", *dims) + blob[at + 16:]
    return mutate


class TestInferWeightFaults:
    @pytest.mark.parametrize("mutate_store, mutate_blob", [
        (lambda s: _without(s, "head.bias"), None),
        (_with_extra, None),
        (_misshapen, None),
        (None, _set_word(24, 4)),
        (None, _bad_utf8_name),
        (None, _set_word(32, 2**30)),
        (None, _set_word(36, 2**31)),
        # element counts whose 64-bit product wraps to 0 and to a negative
        (None, _first_dims(2**31, 2**31, 4, 1)),
        (None, _first_dims(*[2**32 - 1] * 4)),
    ], ids=["missing_tensor", "extra_tensor", "misshapen_tensor", "even_kernel", "non_utf8_name",
            "huge_effective_field", "huge_sinkhorn_iters", "dims_wrap_to_zero",
            "dims_wrap_negative"])
    def test_bad_weight_file_is_io_error(self, png_pair, tmp_path, capsys,
                                         mutate_store, mutate_blob):
        left, right = png_pair
        store = init_model(TINY, seed=0)
        weights = tmp_path / "model.msin"
        save_weights(mutate_store(store) if mutate_store else store, weights)
        if mutate_blob:
            weights.write_bytes(mutate_blob(weights.read_bytes()))
        code = cli.main([
            "infer", "--left", str(left), "--right", str(right),
            "--weights", str(weights), "--out-dir", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        assert code == cli.EXIT_IO
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("offset, value, field", [
        (8, MAX_BLOCKS + 1, "n_blocks"),
        (12, MAX_WIDTH + 2, "width"),
        (12, 10_000_000, "width"),
        (20, MAX_BRANCHES + 1, "branch_count"),
        (20, 2**32 - 1, "branch_count"),
    ], ids=["too_many_blocks", "too_wide", "huge_width", "too_many_branches",
            "huge_branch_count"])
    def test_over_cap_header_is_io_error(self, png_pair, tmp_path, capsys, offset, value, field):
        # rejected from the header, before any tensor is read or allocated
        left, right = png_pair
        weights = tmp_path / "model.msin"
        save_weights(init_model(TINY, seed=0), weights)
        weights.write_bytes(_set_word(offset, value)(weights.read_bytes()))
        code = cli.main([
            "infer", "--left", str(left), "--right", str(right),
            "--weights", str(weights), "--out-dir", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        assert code == cli.EXIT_IO
        assert err.startswith(f"error: invalid config block: {field} must be")
        assert "Traceback" not in err


class TestNonFiniteOutput:
    # a NaN head bias in both views, or (separate view weights) only in the
    # right view, whose PNG would be written second
    @pytest.mark.parametrize("cfg, bias", [
        (TINY, "head.bias"),
        (dataclasses.replace(TINY, share_view_weights=False), "right.head.bias"),
    ], ids=["both_views", "right_view"])
    def test_nan_output_is_numeric_error_and_writes_nothing(self, png_pair, tmp_path, capsys,
                                                            cfg, bias):
        left, right = png_pair
        store = init_model(cfg, seed=0)
        nan_bias = Tensor(np.full(store[bias].shape, np.nan, np.float32))
        weights = tmp_path / "model.msin"
        save_weights(WeightStore(store.config, [
            (n, nan_bias if n == bias else t) for n, t in store.items()
        ]), weights)
        code = cli.main([
            "infer", "--left", str(left), "--right", str(right),
            "--weights", str(weights), "--out-dir", str(tmp_path / "o"),
        ])
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERIC
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if line] == [
            "error: cannot quantize an image with NaN or infinite values"]
        assert list(tmp_path.glob("**/*_sr.png")) == []


def _run_capped(argv, stdin=None):
    """Exit code and stderr of the CLI run in a child interpreter whose
    address space is capped at 1.5 GiB, with ``stdin`` bytes piped in."""
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (3 * 2**29, 3 * 2**29))\n"
              "from stereosr.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], input=stdin, capture_output=True, timeout=120,
        env={
            "PATH": "/usr/bin:/bin",
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": str(Path(stereosr.__file__).resolve().parent.parent),
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    return proc.returncode, proc.stderr.decode()


class TestFileSizeBounds:
    def test_config_longer_than_the_bound_is_usage_error(self, tmp_path):
        path = tmp_path / "model.cfg"
        line = "# padding\n"
        full, rest = divmod(cli.MAX_CONFIG_BYTES, len(line))
        path.write_text(line * full + "#" * rest)
        assert cli.parse_config_file(path) == ModelConfig()
        path.write_text(path.read_text() + "\n")
        with pytest.raises(cli.UsageError, match=f"longer than {cli.MAX_CONFIG_BYTES} bytes"):
            cli.parse_config_file(path)

    def test_png_longer_than_the_bound_is_png_error(self, tmp_path, monkeypatch):
        path = tmp_path / "a.png"
        save_png(ImageBuffer(np.zeros((4, 5, 3), np.uint8)), path)
        size = path.stat().st_size
        monkeypatch.setattr(images, "MAX_PNG_BYTES", size)
        assert load_png(path).pixels.shape == (4, 5, 3)
        monkeypatch.setattr(images, "MAX_PNG_BYTES", size - 1)
        with pytest.raises(images.PngError, match=f"longer than {size - 1} bytes"):
            load_png(path)

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    @pytest.mark.parametrize("endless, code", [
        ("config", cli.EXIT_USAGE), ("weights", cli.EXIT_IO), ("left", cli.EXIT_IO),
        ("weights_hole", cli.EXIT_IO), ("weights_claim", cli.EXIT_IO),
        ("weights_claim_pipe", cli.EXIT_IO),
    ])
    def test_endless_input_fails_in_a_capped_child(self, png_pair, tmp_path, endless, code):
        # reading all of /dev/zero or of a 3 GiB hole, or allocating the
        # 2 GB a short file's first tensor claims (read from a file or from
        # a pipe), would exhaust the cap
        left, right = png_pair
        weights = tmp_path / "model.msin"
        save_weights(init_model(TINY, seed=0), weights)
        if endless == "weights_hole":
            os.truncate(weights, weights.stat().st_size + 3 * 2**30)
        if endless.startswith("weights_claim"):
            # a config whose files take 2.45 GB: every cap, the widest
            # branches, separate view weights; its tensor count and the
            # first record's name are right, so the dims claim is judged
            cfg = ModelConfig(MAX_BLOCKS, MAX_WIDTH, 4, (LskaBranch(127, 1, 1),) * MAX_BRANCHES,
                              share_view_weights=False, global_residual=False)
            count = len(list(layout(cfg)))
            header = struct.pack("<4s5I", b"MSIN", 1, MAX_BLOCKS, MAX_WIDTH, 4, MAX_BRANCHES)
            header += struct.pack("<3I", 127, 1, 1) * MAX_BRANCHES + struct.pack("<3I", 10, 0, count)
            name = b"left.intro.weight"
            claim = struct.pack("<H", len(name)) + name + struct.pack("<B4I", 4, 1, 1, 1, 5 * 10**8)
            weights.write_bytes(header + claim + bytes(64))
        if endless == "config":
            argv = ["overfit", "--left", str(left), "--right", str(right),
                    "--config", "/dev/zero", "--steps", "1", "--out", str(tmp_path / "fit.msin")]
        else:
            source = {"weights": "/dev/zero", "weights_claim_pipe": "/dev/stdin"}
            argv = ["infer", "--left", "/dev/zero" if endless == "left" else str(left),
                    "--right", str(right), "--weights", source.get(endless, str(weights)),
                    "--out-dir", str(tmp_path / "o")]
        stdin = weights.read_bytes() if endless == "weights_claim_pipe" else None
        got, err = _run_capped(argv, stdin)
        assert got == code, err
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1
        assert "Traceback" not in err
        assert "out of memory" not in err   # failed on its bound, not on the cap


class TestOsErrors:
    def _assert_io_error(self, code, capsys):
        err = capsys.readouterr().err
        assert code == cli.EXIT_IO
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("under_file", [(), ("sub",)], ids=["is_a_file", "under_a_file"])
    def test_infer_out_dir_blocked_by_file(self, png_pair, tmp_path, capsys, under_file):
        left, right = png_pair
        weights = tmp_path / "model.msin"
        save_weights(init_model(TINY, seed=0), weights)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        code = cli.main([
            "infer", "--left", str(left), "--right", str(right),
            "--weights", str(weights), "--out-dir", str(blocker.joinpath(*under_file)),
        ])
        self._assert_io_error(code, capsys)

    @pytest.mark.parametrize("case", ["is_a_file", "under_a_file", "under_a_dangling_link",
                                      "empty"])
    def test_infer_out_dir_checked_before_the_forward(self, png_pair, tmp_path, monkeypatch,
                                                      capsys, case):
        def forward(*args):
            raise AssertionError("forward ran before the output directory was checked")

        monkeypatch.setattr(cli, "forward", forward)
        monkeypatch.chdir(tmp_path)
        left, right = png_pair
        weights = tmp_path / "model.msin"
        save_weights(init_model(TINY, seed=0), weights)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "missing")
        # the --out-dir and os.makedirs' own error, from the first mkdir it makes
        out_dir, message = {
            "is_a_file": (blocker, f"[Errno 17] File exists: '{blocker}'"),
            "under_a_file": (blocker / "sub" / "dir",
                             f"[Errno 20] Not a directory: '{blocker / 'sub'}'"),
            "under_a_dangling_link": (link / "x",
                                      f"[Errno 2] No such file or directory: '{link / 'x'}'"),
            "empty": ("", "[Errno 2] No such file or directory: ''"),
        }[case]
        before = sorted(tmp_path.rglob("*"))
        code = cli.main([
            "infer", "--left", str(left), "--right", str(right),
            "--weights", str(weights), "--out-dir", str(out_dir),
        ])
        assert message in capsys.readouterr().err
        assert code == cli.EXIT_IO
        assert sorted(tmp_path.rglob("*")) == before   # blocker / "sub" included

    @pytest.mark.parametrize("case", ["directory", "empty", "under_a_dangling_link",
                                      "under_a_file"])
    def test_overfit_out_checked_before_any_step(self, png_pair, tmp_path, monkeypatch, capsys,
                                                 case):
        def overfit(*args, **kwargs):
            raise AssertionError("a step ran before --out was checked")

        monkeypatch.setattr(cli, "overfit", overfit)
        monkeypatch.chdir(tmp_path)   # where the log of an empty --out would land
        left, right = png_pair
        config = tmp_path / "model.cfg"
        config.write_text("n_blocks = 1\nwidth = 8\nscale = 2\nlska_branches = 3:3:1\n")
        (tmp_path / "fit").mkdir()
        blocker = tmp_path / "taken"
        blocker.write_text("")
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "missing" / "x.msin")
        # the --out and the OS's own error, which names --out itself
        out, message = {
            "directory": (tmp_path / "fit", f"[Errno 21] Is a directory: '{tmp_path / 'fit'}'"),
            "empty": ("", "[Errno 2] No such file or directory: ''"),
            "under_a_dangling_link": (link, f"[Errno 2] No such file or directory: '{link}'"),
            "under_a_file": (blocker / "x.msin",
                             f"[Errno 20] Not a directory: '{blocker / 'x.msin'}'"),
        }[case]
        before = sorted(tmp_path.rglob("*"))
        code = cli.main([
            "overfit", "--left", str(left), "--right", str(right),
            "--config", str(config), "--steps", "30", "--out", str(out),
        ])
        out_text, err = capsys.readouterr()
        assert message in err
        assert out_text == ""
        assert code == cli.EXIT_IO
        assert list(tmp_path.glob("*.log")) == []
        assert sorted(tmp_path.rglob("*")) == before

    def test_overfit_keeps_an_existing_out_when_a_later_step_fails(self, png_pair, tmp_path,
                                                                   monkeypatch, capsys):
        def overfit(*args, **kwargs):
            raise TrainingDivergedError(0, float("nan"))

        monkeypatch.setattr(cli, "overfit", overfit)
        left, right = png_pair
        config = tmp_path / "model.cfg"
        config.write_text("n_blocks = 1\nwidth = 8\nscale = 2\nlska_branches = 3:3:1\n")
        out = tmp_path / "fit.msin"
        save_weights(init_model(TINY, seed=0), out)
        kept = out.read_bytes()
        code = cli.main([
            "overfit", "--left", str(left), "--right", str(right),
            "--config", str(config), "--steps", "30", "--out", str(out),
        ])
        assert code == cli.EXIT_NUMERIC
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == kept   # checked without truncating

    def test_metrics_path_under_file(self, png_pair, capsys):
        left, _ = png_pair
        code = cli.main(["metrics", "--ref", str(left), "--test", str(left) + "/"])
        self._assert_io_error(code, capsys)

    @pytest.mark.parametrize("message, line", [
        ("", "error: out of memory"),
        ("Unable to allocate 2.00 GiB", "error: out of memory: Unable to allocate 2.00 GiB"),
    ], ids=["bare", "numpy"])
    def test_memory_error_is_io_error(self, png_pair, tmp_path, monkeypatch, capsys,
                                      message, line):
        def forward(*args):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr(cli, "forward", forward)
        left, right = png_pair
        weights = tmp_path / "model.msin"
        save_weights(init_model(TINY, seed=0), weights)
        code = cli.main([
            "infer", "--left", str(left), "--right", str(right),
            "--weights", str(weights), "--out-dir", str(tmp_path / "o"),
        ])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_IO
        assert out == ""
        assert err.splitlines() == [line]


@pytest.fixture
def uneven_pair(tmp_path):
    rng = np.random.default_rng(0)
    paths = []
    for name, width in (("left.png", 12), ("right.png", 16)):
        path = tmp_path / name
        save_png(ImageBuffer.from_tensor(Tensor(rng.uniform(size=(1, 3, 8, width)))), path)
        paths.append(path)
    return paths


class TestMismatchedViews:
    def test_infer_is_usage_error(self, uneven_pair, tmp_path, capsys):
        left, right = uneven_pair
        weights = tmp_path / "model.msin"
        save_weights(init_model(TINY, seed=0), weights)
        code = cli.main([
            "infer", "--left", str(left), "--right", str(right),
            "--weights", str(weights), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == cli.EXIT_USAGE
        assert "8x12" in capsys.readouterr().err

    def test_overfit_is_usage_error(self, uneven_pair, tmp_path, capsys):
        left, right = uneven_pair
        config = tmp_path / "model.cfg"
        config.write_text("n_blocks = 1\nwidth = 8\nscale = 2\nlska_branches = 3:3:1\n")
        out = tmp_path / "fit.msin"
        code = cli.main([
            "overfit", "--left", str(left), "--right", str(right),
            "--config", str(config), "--steps", "1", "--out", str(out),
        ])
        assert code == cli.EXIT_USAGE
        assert "8x16" in capsys.readouterr().err
        assert not out.exists()


def _flat_pair(tmp_path, height, width):
    paths = []
    for name in ("left.png", "right.png"):
        path = tmp_path / name
        save_png(ImageBuffer.from_tensor(Tensor(np.full((1, 3, height, width), 0.5))), path)
        paths.append(path)
    return paths


class TestOverfitCrop:
    def _overfit(self, tmp_path, height, width):
        left, right = _flat_pair(tmp_path, height, width)
        config = tmp_path / "model.cfg"
        config.write_text("n_blocks = 1\nwidth = 8\nscale = 4\nlska_branches = 3:3:1\n")
        return cli.main([
            "overfit", "--left", str(left), "--right", str(right),
            "--config", str(config), "--steps", "1", "--out", str(tmp_path / "fit.msin"),
        ])

    def test_views_are_cropped_to_a_multiple_of_the_scale(self, tmp_path):
        # 98x290 at x4 trains on 96x288, whose LR views are 24x72
        assert self._overfit(tmp_path, 98, 290) == cli.EXIT_OK
        assert (tmp_path / "fit.msin").exists()

    def test_view_smaller_than_the_scale_is_usage_error(self, tmp_path, capsys):
        assert self._overfit(tmp_path, 3, 290) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "image 3x290 too small for scale 4" in err
        assert not (tmp_path / "fit.msin").exists()


class TestCostVolumeBound:
    @pytest.mark.parametrize("h, w", [(32, 1024), (128, 512)])
    def test_bound_admits_and_rejects_one_more_column(self, h, w):
        assert h * w * w == MAX_COST_VOLUME
        check_cost_volume(h, w)
        with pytest.raises(ShapeError):
            check_cost_volume(h, w + 1)

    def test_infer_is_usage_error(self, tmp_path, capsys):
        # a 1x65536 pair would need a 16 GiB cost volume
        left, right = _flat_pair(tmp_path, 1, 65536)
        weights = tmp_path / "model.msin"
        save_weights(init_model(TINY, seed=0), weights)
        code = cli.main([
            "infer", "--left", str(left), "--right", str(right),
            "--weights", str(weights), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "1x65536" in err
        assert not (tmp_path / "o").exists()

    def test_overfit_is_usage_error_before_downsampling(self, tmp_path, capsys, monkeypatch):
        # the bicubic matrices of a 16384-wide view alone would take 1 GiB
        def downsample(*args):
            raise AssertionError("bicubic_downsample ran before the size check")

        monkeypatch.setattr(cli, "bicubic_downsample", downsample)
        left, right = _flat_pair(tmp_path, 2, 16384)
        config = tmp_path / "model.cfg"
        config.write_text("n_blocks = 1\nwidth = 8\nscale = 2\nlska_branches = 3:3:1\n")
        out = tmp_path / "fit.msin"
        code = cli.main([
            "overfit", "--left", str(left), "--right", str(right),
            "--config", str(config), "--steps", "1", "--out", str(out),
        ])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "1x8192" in err
        assert not out.exists()

    @pytest.mark.parametrize("n_blocks, single, admitted", [
        (128, "false", True), (129, "false", False), (256, "false", False), (256, "true", True),
    ], ids=["128_stages_on_bound", "129_stages", "256_stages", "256_blocks_one_stage"])
    def test_overfit_counts_the_stages(self, tmp_path, capsys, monkeypatch,
                                       n_blocks, single, admitted):
        # 16x128 LR holds 2^18 elements per volume, so 128 stages reach 2^25
        class Reached(Exception):
            pass

        def overfit(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "overfit", overfit)
        left, right = _flat_pair(tmp_path, 32, 256)
        config = tmp_path / "model.cfg"
        config.write_text(f"n_blocks = {n_blocks}\nwidth = 4\nscale = 2\n"
                          f"single_interaction = {single}\n")
        argv = ["overfit", "--left", str(left), "--right", str(right),
                "--config", str(config), "--steps", "1", "--out", str(tmp_path / "fit.msin")]
        if admitted:
            with pytest.raises(Reached):
                cli.main(argv)
            return
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "16x128" in err and f"{n_blocks} cross-view stages" in err


class TestOutputSizeBound:
    @pytest.mark.parametrize("height, code, message", [
        (65537, cli.EXIT_USAGE, "gives 262148x64 outputs, above the bound of 16777216 pixels"),
        (65536, cli.EXIT_IO, "no IEND chunk"),
    ], ids=["over_bound", "on_bound"])
    def test_infer_output_checked_from_the_headers(self, tmp_path, capsys, height, code, message):
        # 16-wide views at x4: the cost volume, 16 * 16 * h, is under its
        # bound, and the output, 64 x 4h pixels, is exactly MAX_PIXELS at
        # h = 65536.  The files hold a signature and IHDR only, so a pair
        # that passes every size check fails on decoding
        ihdr = struct.pack(">IIBBBBB", 16, height, 8, 2, 0, 0, 0)
        left, right = tmp_path / "left.png", tmp_path / "right.png"
        for path in (left, right):
            path.write_bytes(b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr))
        weights = tmp_path / "model.msin"
        save_weights(init_model(TINY, seed=0), weights)
        assert cli.main(["infer", "--left", str(left), "--right", str(right),
                         "--weights", str(weights), "--out-dir", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert message in err
        assert not (tmp_path / "o").exists()


class TestSizesCheckedFromHeaders:
    """A pair whose views differ in size or exceed the cost-volume bound is
    rejected from the PNG headers: decode_png never runs."""

    @pytest.fixture(autouse=True)
    def no_decoding(self, monkeypatch):
        def decode_png(blob):
            raise AssertionError("decode_png ran before the size checks")

        monkeypatch.setattr(images, "decode_png", decode_png)

    @pytest.mark.parametrize("command, sizes, message", [
        ("infer", ((12, 8), (16, 8)), "left view is 8x12 but right view is 8x16"),
        ("infer", ((2048, 2048), (2048, 2048)), "size 2048x2048 needs a cost volume"),
        ("overfit", ((12, 8), (16, 8)), "left view is 8x12 but right view is 8x16"),
        ("overfit", ((16385, 3), (16385, 3)), "size 1x8192 needs a cost volume"),
        ("metrics", ((12, 8), (16, 8)), "shape mismatch: (1, 3, 8, 12) vs (1, 3, 8, 16)"),
    ], ids=["infer_mismatched", "infer_over_bound", "overfit_mismatched",
            "overfit_over_bound", "metrics_mismatched"])
    def test_rejected_before_decoding(self, tmp_path, capsys, command, sizes, message):
        # a signature and IHDR over IDAT bytes that do not inflate
        left, right = tmp_path / "left.png", tmp_path / "right.png"
        for path, (width, height) in zip((left, right), sizes):
            ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
            path.write_bytes(b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
                             + _chunk(b"IDAT", b"x") + _chunk(b"IEND", b""))
        if command == "infer":
            weights = tmp_path / "model.msin"
            save_weights(init_model(TINY, seed=0), weights)
            argv = ["infer", "--left", str(left), "--right", str(right),
                    "--weights", str(weights), "--out-dir", str(tmp_path / "o")]
        elif command == "overfit":
            config = tmp_path / "model.cfg"
            config.write_text("n_blocks = 1\nwidth = 8\nscale = 2\nlska_branches = 3:3:1\n")
            argv = ["overfit", "--left", str(left), "--right", str(right),
                    "--config", str(config), "--steps", "1", "--out", str(tmp_path / "fit.msin")]
        else:
            argv = ["metrics", "--ref", str(left), "--test", str(right)]
        assert cli.main(argv) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("error:") == 1
        assert message in err


class TestCountArguments:
    @pytest.mark.parametrize("argv", [
        ["sinkhorn-demo", "--iters", "0"],
        ["sinkhorn-demo", "--width", "0"],
        ["sinkhorn-demo", "--width", "-2"],
        ["sinkhorn-demo", "--width", "two"],
        ["overfit", "--left", "l.png", "--right", "r.png", "--config", "m.cfg",
         "--steps", "-3", "--out", "fit.msin"],
        ["gradcheck", "--seed", "-1"],
        ["sinkhorn-demo", "--iters", "2147483648"],
        ["sinkhorn-demo", "--width", str(cli.MAX_DEMO_WIDTH + 1)],
    ], ids=["iters_0", "width_0", "width_negative", "width_not_integer", "steps_negative",
            "seed_negative", "iters_over_cap", "width_over_cap"])
    def test_out_of_range_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: argument --")
        assert not (tmp_path / "fit.msin").exists()

    def test_smallest_counts_accepted(self, capsys):
        assert cli.main(["sinkhorn-demo", "--width", "1", "--iters", "1"]) == 0

    @pytest.mark.parametrize("argv", [
        ["--iters", str(MAX_SINKHORN_ITERS)],
        ["--width", str(cli.MAX_DEMO_WIDTH)],
    ], ids=["iters", "width"])
    def test_largest_counts_accepted(self, argv, capsys):
        assert cli.main(["sinkhorn-demo", *argv]) == 0
        assert "max gap vs converged oracle" in capsys.readouterr().out


class TestOverfitCommand:
    def test_two_steps_writes_weights_and_log(self, png_pair, tmp_path, capsys):
        left, right = png_pair
        config = tmp_path / "model.cfg"
        config.write_text(
            "n_blocks = 1\nwidth = 8\nscale = 2\nlska_branches = 3:3:1\n"
        )
        out = tmp_path / "fit.msin"
        code = cli.main([
            "overfit", "--left", str(left), "--right", str(right),
            "--config", str(config), "--steps", "2", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        log_lines = (tmp_path / "fit.msin.log").read_text().splitlines()
        assert len(log_lines) == 2
        first = log_lines[0].split("\t")
        assert first[0] == "0"
        assert len(first) == 5

    def test_each_log_line_reaches_the_file_as_written(self, png_pair, tmp_path, monkeypatch,
                                                        capsys):
        log_path = tmp_path / "fit.msin.log"

        def overfit(lr, hr, cfg, steps, seed, log_fn):
            for step in range(steps):
                log_fn(StepLog(step=step, lr=1e-4, loss=0.5, psnr_left=20.0, psnr_right=21.0))
                assert len(log_path.read_text().splitlines()) == step + 1
            return init_model(cfg, seed)

        monkeypatch.setattr(cli, "overfit", overfit)
        left, right = png_pair
        config = tmp_path / "model.cfg"
        config.write_text("n_blocks = 1\nwidth = 8\nscale = 2\nlska_branches = 3:3:1\n")
        code = cli.main([
            "overfit", "--left", str(left), "--right", str(right),
            "--config", str(config), "--steps", "3", "--out", str(tmp_path / "fit.msin"),
        ])
        assert code == 0
        assert len(log_path.read_text().splitlines()) == 3


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self, capsys):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_unknown_flag_is_usage(self, capsys):
        assert cli.main(["sinkhorn-demo", "--wat", "1"]) == cli.EXIT_USAGE

    def test_no_arguments_is_usage(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_gradcheck_exit_codes(self, monkeypatch, capsys):
        ok = [verify.CheckResult("fake_op", 1e-9, 1e-4)]
        monkeypatch.setattr(cli, "gradient_suite", lambda seed: ok)
        assert cli.main(["gradcheck"]) == 0
        bad = [verify.CheckResult("fake_op", 1.0, 1e-4)]
        monkeypatch.setattr(cli, "gradient_suite", lambda seed: bad)
        assert cli.main(["gradcheck"]) == cli.EXIT_NUMERIC

    def test_shape_error_is_usage(self, png_pair, tmp_path, monkeypatch, capsys):
        # ShapeError is a ValueError, which otherwise maps to a numeric failure
        def forward(*args):
            raise ShapeError("views too wide")

        monkeypatch.setattr(cli, "forward", forward)
        left, right = png_pair
        weights = tmp_path / "model.msin"
        save_weights(init_model(TINY, seed=0), weights)
        code = cli.main([
            "infer", "--left", str(left), "--right", str(right),
            "--weights", str(weights), "--out-dir", str(tmp_path / "o"),
        ])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: views too wide"]
        assert "Traceback" not in err
