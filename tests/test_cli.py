"""End-to-end CLI tests on a tiny configuration."""

import os
import shutil
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from restyle import autodiff, checkpoint, cli, encoder, gradcheck, trainer, transition
from restyle.cli import main
from restyle.config import RunConfig, load_config
from restyle.corpus import CorpusSpec, make_test_pairs
from restyle.errors import ConfigError
from restyle.images import load_ppm, save_ppm

from test_parsers import edits, mutate

TINY = """\
seed = 9
image_size = 32
channels = 4,6,8,10
levels = 2
steps = 2
batch = 1
lambda_ps = 1,5
content_count = 3
style_count = 2
model_dir = {dir}
"""


def write_image(path, img):
    with open(path, "wb") as fh:
        fh.write(save_ppm(img))


def read_image(path):
    with open(path, "rb") as fh:
        return load_ppm(fh.read())


def train_all(cfg_path, levels=2):
    for level in range(levels, 0, -1):
        assert main(["train", "--config", cfg_path, "--level", str(level)]) == 0


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A read-only directory: `model/` (TINY, trained), the PPMs `content`, `style`
    and `input`, and `pairs`, which lists content and style."""
    tmp = tmp_path_factory.mktemp("trained")
    (tmp / "run.cfg").write_text(TINY.format(dir=tmp / "model"))
    train_all(str(tmp / "run.cfg"))
    (c, s), = make_test_pairs(CorpusSpec(seed=6, size=32, content_count=1, style_count=1), 1)
    for name, img in (("content", c), ("style", s), ("input", s)):
        write_image(tmp / name, img)
    (tmp / "pairs").write_text(f"{tmp / 'content'}\t{tmp / 'style'}\n")
    return tmp


class TestTrainCommand:
    def test_missing_coarser_checkpoint_exits_2(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text(TINY.format(dir=tmp_path / "model"))
        rc = main(["train", "--config", str(tmp_path / "run.cfg"), "--level", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "level 2" in err

    @pytest.mark.parametrize("level", [0, 3])
    def test_level_outside_config_exits_2_before_writing(self, tmp_path, capsys, level):
        (tmp_path / "run.cfg").write_text(TINY.format(dir=tmp_path / "model"))
        rc = main(["train", "--config", str(tmp_path / "run.cfg"), "--level", str(level)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: config: level {level} outside 1..2\n"
        assert not (tmp_path / "model").exists()

    def test_corrupt_encoder_checkpoint_names_file(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text(TINY.format(dir=tmp_path / "model"))
        enc_path = tmp_path / "model" / "encoder.ckpt"
        enc_path.parent.mkdir()
        enc_path.write_bytes(b"XXXXjunk")
        rc = main(["train", "--config", str(tmp_path / "run.cfg"), "--level", "1"])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: config: {enc_path}: bad magic b'XXXX', expected b'ETNT'\n"

    def test_zero_steps_writes_init_checkpoint(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(TINY.format(dir=tmp_path / "m").replace("steps = 2", "steps = 0"))
        assert main(["train", "--config", str(cfg_path), "--level", "2"]) == 0
        a = checkpoint.read(tmp_path / "m" / "level2.ckpt")
        assert len(a) > 0

    def test_out_in_missing_directory_names_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(TINY.format(dir=tmp_path / "m")
                                          .replace("steps = 2", "steps = 0"))
        out = os.path.join("missing", "x.ckpt")
        assert main(["train", "--config", "run.cfg", "--level", "2", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: file: ") and err.endswith(f": {out}\n")
        assert err.count("\n") == 1

    def test_deterministic_checkpoints(self, tmp_path):
        outs = []
        for name in ("m1", "m2"):
            cfg_path = tmp_path / f"{name}.cfg"
            cfg_path.write_text(TINY.format(dir=tmp_path / name))
            train_all(str(cfg_path))
            with open(tmp_path / name / "level1.ckpt", "rb") as fh:
                blob = fh.read()
            with open(tmp_path / name / "level1.log", "rb") as fh:
                log = fh.read()
            outs.append((blob, log))
        assert outs[0] == outs[1]

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("nonsense = 1\n")
        assert main(["train", "--config", str(cfg_path), "--level", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: config:")

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "neg.cfg"
        cfg_path.write_text(TINY.format(dir=tmp_path / "m").replace("seed = 9", "seed = -1"))
        assert main(["train", "--config", str(cfg_path), "--level", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "seed" in err

    @pytest.mark.parametrize("size", [0, -96])
    def test_non_positive_image_size_exits_2(self, tmp_path, capsys, size):
        cfg_path = tmp_path / "size.cfg"
        cfg_path.write_text(TINY.format(dir=tmp_path / "m")
                            .replace("image_size = 32", f"image_size = {size}"))
        assert main(["train", "--config", str(cfg_path), "--level", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "image_size" in err

    def test_empty_model_dir_exits_2_before_writing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text(TINY.format(dir=""))
        assert main(["train", "--config", "run.cfg", "--level", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "model_dir" in err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_non_finite_gradient_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "huge.cfg"
        # one step: the losses are finite, so only the gradient check can stop it
        cfg_path.write_text(TINY.format(dir=tmp_path / "m").replace("steps = 2", "steps = 1")
                            + "lambda_pc = 1e39\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(cfg_path), "--level", "2"]) == 3
        assert capsys.readouterr().err.startswith("error: numeric:")
        assert not (tmp_path / "m" / "level2.ckpt").exists()


class TestStylizeCommand:
    def test_roundtrip_and_intermediates(self, tmp_path, trained):
        tmp, model = tmp_path, str(trained / "model")
        pairs = make_test_pairs(CorpusSpec(seed=1, size=32, content_count=1, style_count=1), 1)
        c_path, s_path = tmp / "c.ppm", tmp / "s.ppm"
        write_image(c_path, pairs[0][0])
        write_image(s_path, pairs[0][1])
        out = tmp / "out.ppm"
        inter = tmp / "inter"
        rc = main(["stylize", "--content", str(c_path), "--style", str(s_path),
                   "--model", model, "--out", str(out),
                   "--save-intermediates", str(inter)])
        assert rc == 0
        img = read_image(out)
        assert img.shape == (32, 32, 3)
        assert sorted(os.listdir(inter)) == ["out.level1.ppm", "out.level2.ppm"]
        finest = read_image(inter / "out.level1.ppm")
        np.testing.assert_array_equal(finest, img)

    def test_alpha_one_matches_default(self, tmp_path, trained):
        tmp, model = tmp_path, str(trained / "model")
        pairs = make_test_pairs(CorpusSpec(seed=2, size=32, content_count=1, style_count=1), 1)
        write_image(tmp / "c.ppm", pairs[0][0])
        write_image(tmp / "s.ppm", pairs[0][1])
        base_args = ["stylize", "--content", str(tmp / "c.ppm"), "--style", str(tmp / "s.ppm"),
                     "--model", model]
        assert main(base_args + ["--out", str(tmp / "a.ppm")]) == 0
        assert main(base_args + ["--out", str(tmp / "b.ppm"), "--alpha", "1.0"]) == 0
        assert (tmp / "a.ppm").read_bytes() == (tmp / "b.ppm").read_bytes()

    def test_alpha_out_of_range_exits_2(self, tmp_path, trained, capsys):
        tmp, model = tmp_path, str(trained / "model")
        write_image(tmp / "c.ppm", np.zeros((32, 32, 3), dtype=np.float32))
        rc = main(["stylize", "--content", str(tmp / "c.ppm"), "--style", str(tmp / "c.ppm"),
                   "--model", model, "--out", str(tmp / "o.ppm"),
                   "--alpha", "1.5"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_utf8_checkpoint_name_exits_2(self, tmp_path, trained, capsys):
        tmp = tmp_path
        shutil.copytree(trained / "model", tmp / "model")
        enc_path = tmp / "model" / "encoder.ckpt"
        blob = bytearray(enc_path.read_bytes())
        blob[14] = 0xFF  # first byte of the first tensor name
        enc_path.write_bytes(bytes(blob))
        write_image(tmp / "c.ppm", np.zeros((32, 32, 3), dtype=np.float32))
        rc = main(["stylize", "--content", str(tmp / "c.ppm"), "--style", str(tmp / "c.ppm"),
                   "--model", str(tmp / "model"), "--out", str(tmp / "o.ppm")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_image_too_large_for_attention_exits_2(self, tmp_path, trained, monkeypatch,
                                                   capsys):
        """An image whose attention would not fit transition.AFFINITY_BYTES exits 2
        with an input error, not a MemoryError traceback."""
        monkeypatch.setattr(transition, "AFFINITY_BYTES", 0)
        rc = main(["stylize", "--content", str(trained / "content"),
                   "--style", str(trained / "style"), "--model", str(trained / "model"),
                   "--out", str(tmp_path / "o.ppm")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: input: nonlocal_block:") and "Traceback" not in err
        assert not (tmp_path / "o.ppm").exists()

    def test_bad_image_exits_2(self, tmp_path, trained, capsys):
        tmp, model = tmp_path, str(trained / "model")
        (tmp / "junk.ppm").write_bytes(b"P5 not really\n")
        rc = main(["stylize", "--content", str(tmp / "junk.ppm"),
                   "--style", str(tmp / "junk.ppm"),
                   "--model", model, "--out", str(tmp / "o.ppm")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestModelLoad:
    def test_load_draws_no_weight(self, tmp_path, trained, monkeypatch):
        """Loading a model directory, alone or under `stylize`, draws and
        calibrates nothing: every weight comes from the checkpoints."""
        def no_draw(*args, **kwargs):
            raise AssertionError("a weight was drawn while loading")

        monkeypatch.setattr(autodiff, "orthogonal_matrix", no_draw)
        monkeypatch.setattr(encoder, "make_encoder", no_draw)
        monkeypatch.setattr(trainer, "make_encoder", no_draw)
        model, cfg = trainer.load_model_dir(str(trained / "model"))
        assert model.depth == cfg.levels == 2
        rc = main(["stylize", "--content", str(trained / "content"),
                   "--style", str(trained / "style"), "--model", str(trained / "model"),
                   "--out", str(tmp_path / "o.ppm")])
        assert rc == 0
        assert read_image(tmp_path / "o.ppm").shape == (32, 32, 3)

    @pytest.mark.parametrize("fault", ["level_shape", "config_channels", "level_nan"])
    def test_checkpoint_that_does_not_fit_exits_2(self, tmp_path, trained, capsys, fault):
        """A checkpoint whose names, shapes or values do not fit `config.txt` is a
        config error that names the file."""
        model = tmp_path / "model"
        shutil.copytree(trained / "model", model)
        culprit = model / ("encoder.ckpt" if fault == "config_channels" else
                           "level2.ckpt" if fault == "level_shape" else "level1.ckpt")
        if fault == "config_channels":
            snap = model / "config.txt"
            snap.write_text(snap.read_text().replace("channels = 4,6,8,10",
                                                     "channels = 5,6,8,10"))
        else:
            state = checkpoint.read(culprit)
            head = state["head.weight"].copy()
            if fault == "level_shape":
                head = head[:, :, :1, :1]
            else:
                head[0, 0, 1, 1] = np.nan
            state["head.weight"] = head
            checkpoint.write(culprit, state)
        rc = main(["stylize", "--content", str(trained / "content"),
                   "--style", str(trained / "style"), "--model", str(model),
                   "--out", str(tmp_path / "o.ppm")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {culprit}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        if fault != "config_channels":
            assert "head.weight" in err
        assert not (tmp_path / "o.ppm").exists()


class TestRefineAndEval:
    def test_refine_shape_contract(self, tmp_path, trained):
        tmp, model = tmp_path, str(trained / "model")
        pairs = make_test_pairs(CorpusSpec(seed=3, size=32, content_count=1, style_count=1), 1)
        write_image(tmp / "c.ppm", pairs[0][0])
        write_image(tmp / "s.ppm", pairs[0][1])
        write_image(tmp / "ext.ppm", np.full((32, 32, 3), 0.5, dtype=np.float32))
        rc = main(["refine", "--input", str(tmp / "ext.ppm"), "--content", str(tmp / "c.ppm"),
                   "--style", str(tmp / "s.ppm"), "--model", model,
                   "--level", "1", "--out", str(tmp / "r.ppm")])
        assert rc == 0
        assert read_image(tmp / "r.ppm").shape == (32, 32, 3)

    def test_stylize_and_refine_leave_stdout_empty(self, tmp_path, trained, capfd):
        """Both commands write only their output file, nothing to fd 1, so a
        caller's own last stdout line (perfbench/run.py's result) stays last."""
        images = ["--content", str(trained / "content"), "--style", str(trained / "style"),
                  "--model", str(trained / "model")]
        assert main(["stylize", *images, "--out", str(tmp_path / "a.ppm")]) == 0
        assert main(["refine", "--input", str(trained / "input"), *images, "--level", "1",
                     "--out", str(tmp_path / "b.ppm")]) == 0
        assert capfd.readouterr().out == ""
        assert (tmp_path / "a.ppm").exists() and (tmp_path / "b.ppm").exists()

    def test_stylize_is_silent_through_interpreter_exit(self, tmp_path, trained):
        """`python -m restyle stylize` in a fresh interpreter writes nothing to
        stdout or stderr, also while the interpreter shuts down."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "restyle", "stylize",
                               "--content", str(trained / "content"),
                               "--style", str(trained / "style"),
                               "--model", str(trained / "model"),
                               "--out", str(tmp_path / "o.ppm")],
                              env=env, capture_output=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert read_image(tmp_path / "o.ppm").shape == (32, 32, 3)

    def test_eval_table_shape(self, tmp_path, trained):
        tmp, model = tmp_path, str(trained / "model")
        pairs = make_test_pairs(CorpusSpec(seed=4, size=32, content_count=2, style_count=2), 2)
        lines = []
        for i, (c, s) in enumerate(pairs):
            write_image(tmp / f"c{i}.ppm", c)
            write_image(tmp / f"s{i}.ppm", s)
            lines.append(f"{tmp}/c{i}.ppm\t{tmp}/s{i}.ppm")
        (tmp / "pairs.txt").write_text("\n".join(lines) + "\n")
        rc = main(["eval", "--model", model, "--pairs", str(tmp / "pairs.txt"),
                   "--out", str(tmp / "table.tsv")])
        assert rc == 0
        rows = (tmp / "table.tsv").read_text().strip().split("\n")
        assert len(rows) == 3
        assert rows[0].split("\t") == ["loss", "K=1", "K=2"]
        assert rows[1].split("\t")[0] == "L_c" and len(rows[1].split("\t")) == 3
        assert rows[2].split("\t")[0] == "L_s" and len(rows[2].split("\t")) == 3

    def test_eval_paths_with_spaces(self, tmp_path, trained):
        tmp, model = tmp_path, str(trained / "model")
        (c, s), = make_test_pairs(CorpusSpec(seed=5, size=32, content_count=1, style_count=1), 1)
        folder = tmp / "my images"
        folder.mkdir()
        write_image(folder / "content 1.ppm", c)
        write_image(folder / "style 1.ppm", s)
        (tmp / "pairs.txt").write_text(f"{folder}/content 1.ppm\t{folder}/style 1.ppm\n")
        rc = main(["eval", "--model", model, "--pairs", str(tmp / "pairs.txt"),
                   "--out", str(tmp / "table.tsv")])
        assert rc == 0
        assert len((tmp / "table.tsv").read_text().strip().split("\n")) == 3


class _Libc:
    """A C library whose `mallopt` records its calls."""

    def __init__(self):
        self.calls = []
        self.mallopt = lambda param, value: self.calls.append((param, value))


@pytest.fixture
def unpinned(monkeypatch):
    """A process whose malloc `cli.main` has not pinned yet; `ctypes.CDLL(None)`
    is the test's to replace. The pin is left to be redone afterwards."""
    cli.pin_malloc.cache_clear()
    yield monkeypatch
    cli.pin_malloc.cache_clear()


class TestMallocPin:
    def test_main_pins_once_per_process(self, unpinned, capsys):
        libc = _Libc()
        unpinned.setattr(cli.ctypes, "CDLL", lambda name: libc)
        for _ in range(2):
            assert main(["gradcheck", "--op", "nope"]) == 2
        assert libc.calls == [(cli.M_MMAP_THRESHOLD, 32 << 20), (cli.M_TRIM_THRESHOLD, 1 << 30)]

    def test_missing_mallopt_still_stylizes(self, tmp_path, trained, unpinned, capsys):
        """Without `mallopt` the pin does nothing: `stylize` writes the image a
        pinned process writes, and the exit codes stay the same."""
        def argv(out, content=trained / "content"):
            return ["stylize", "--content", str(content), "--style", str(trained / "style"),
                    "--model", str(trained / "model"), "--out", str(out)]

        assert main(argv(tmp_path / "pinned.ppm")) == 0
        cli.pin_malloc.cache_clear()
        unpinned.setattr(cli.ctypes, "CDLL", lambda name: object())
        assert main(argv(tmp_path / "plain.ppm")) == 0
        assert (tmp_path / "plain.ppm").read_bytes() == (tmp_path / "pinned.ppm").read_bytes()
        assert main(argv(tmp_path / "x.ppm", content=tmp_path / "missing.ppm")) == 2
        assert "error: file:" in capsys.readouterr().err

    def test_import_does_not_pin(self):
        """A fresh interpreter that imports `restyle.cli` calls no `mallopt`."""
        code = "\n".join([
            "import ctypes",
            "calls = []",
            "class Libc:",
            "    def mallopt(self, *args):",
            "        calls.append(args)",
            "load = ctypes.CDLL",
            "ctypes.CDLL = lambda name, *a, **kw: Libc() if name is None else load(name, *a, **kw)",
            "import restyle.cli",
            "print(len(calls))",
        ])
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.split() == ["0"]


class TestGradcheckCommand:
    def test_single_op(self, capsys):
        assert main(["gradcheck", "--op", "gram"]) == 0
        out = capsys.readouterr().out
        assert "PASS gram" in out

    def test_training_objective(self, capsys):
        assert main(["gradcheck", "--op", "training_objective"]) == 0
        assert "PASS training_objective" in capsys.readouterr().out

    def test_unknown_op_exits_2(self, capsys):
        assert main(["gradcheck", "--op", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error: config:")

    def test_empty_op_is_unknown(self, capsys):
        assert main(["gradcheck", "--op", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: config: unknown op ''") and captured.out == ""

    def test_failed_check_exits_3(self, monkeypatch):
        monkeypatch.setattr(gradcheck, "run_suite", lambda **_: [("gram", 1.0, False)])
        assert main(["gradcheck"]) == 3


# command: the path its error line names, and the line's category
OS_AND_DECODE_ERRORS = {
    "train --config DIR --level 1": ("DIR", "config"),
    "train --config BAD --level 1": ("BAD", "config"),
    "train --config GONE --level 1": ("GONE", "config"),
    "stylize --content DIR --style S --model M --out O": ("DIR", "file"),
    "stylize --content GONE --style S --model M --out O": ("GONE", "file"),
    "stylize --content C --style S --model M --out DIR": ("DIR", "file"),
    "stylize --content C --style S --model M --out GONE/o": ("GONE/o", "file"),
    "eval --model M --pairs BAD --out O": ("BAD", "config"),
    "eval --model M --pairs DIR --out O": ("DIR", "file")}


@pytest.mark.parametrize("command", list(OS_AND_DECODE_ERRORS))
def test_os_and_decode_errors_exit_2(trained, tmp_path, capsys, command):
    """One error line, in the category of the path that failed, which it names."""
    culprit, category = OS_AND_DECODE_ERRORS[command]
    (tmp_path / "bad").write_bytes(b"seed = 9\xff\n")
    paths = {"DIR": tmp_path, "BAD": tmp_path / "bad", "GONE": tmp_path / "gone",
             "GONE/o": tmp_path / "gone" / "o", "C": trained / "content",
             "S": trained / "style", "M": trained / "model", "O": tmp_path / "o"}
    assert main([str(paths.get(arg, arg)) for arg in command.split()]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {category}: ") and err.count("\n") == 1
    assert str(paths[culprit]) in err and "Traceback" not in err


FLAGS = {"stylize": ["model", "content", "style"], "eval": ["model", "pairs"],
         "refine": ["model", "content", "style", "input"]}
# each path stays valid half of the time, so that a fault in a later path is reached
KINDS = st.sampled_from(["valid"] * 4 + ["missing", "directory", "non_utf8", "mutated"])


# capsys is read after every example, so no output carries over between examples
@settings(derandomize=True, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(FLAGS)), st.lists(st.tuples(KINDS, edits), min_size=4, max_size=4),
       st.sampled_from(["o.ppm", "", "missing/o.ppm"]))
def test_cli_exit_codes_property(trained, tmp_path_factory, capsys, command, draws, out):
    """stylize, refine and eval exit 0, 2 or 3 without a traceback when a path is
    missing, a directory, non-UTF-8 text or a 1-4 byte mutation of a valid PPM,
    pair list, checkpoint or config.txt (the model file that the edits pick)."""
    tmp = tmp_path_factory.mktemp("case")
    argv = [command, "--out", str(tmp / out)] + ["--level", "1"] * (command == "refine")
    for name, (kind, ops) in zip(FLAGS[command], draws):
        path = tmp / name
        argv += [f"--{name}", str(path)]
        if kind == "directory":
            path.mkdir()
        elif kind == "non_utf8":
            path.write_bytes(b"\xffnot text\n")
        elif kind != "missing":
            (shutil.copytree if name == "model" else shutil.copy)(trained / name, path)
            files = sorted(path.iterdir()) if name == "model" else [path]
            if kind == "mutated":
                target = files[ops[0][1] % len(files)]
                target.write_bytes(bytes(mutate(target.read_bytes(), ops, int)))
    assert main(argv) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


# (key, value): a value at an edge of the field's range, or just past it
EDGE_VALUES = {"int": ["0", "1", "2", "-1", "16"], "float": ["0", "1e-9", "1e30", "nan", "-1"],
               "tuple[int, ...]": ["1,1,1,1", "16,8,4,2", "4,6,8"],
               "tuple[float, ...]": ["0,0", "1,5,8", "1e30,5", "1"]}
TRAIN_VALUES = [(f.name, v) for f in fields(RunConfig) if f.name != "model_dir"
                for v in EDGE_VALUES[f.type]]


def tiny_config(ops, values, model_dir):
    """TINY with its `values` replaced or added, then mutated by `ops`; the
    model_dir line is set last, so every write stays under `model_dir`."""
    lines = [line for line in TINY.splitlines() if not line.startswith("model_dir")]
    lines = [line for line in lines if line.split(" = ")[0] not in values]
    body = "".join(mutate("\n".join(lines + [f"{k} = {v}" for k, v in values.items()]),
                          ops, chr))
    return f"{body}\nmodel_dir = {model_dir}\n"


def trains_like_tiny(cfg_path):
    """Whether the config at `cfg_path` is invalid or trains about as fast as
    TINY; a valid mutation can raise a size, a width or a count tenfold."""
    try:
        cfg = load_config(cfg_path)
    except ConfigError:
        return True
    return (cfg.image_size <= 32 and max(cfg.channels) <= 16 and cfg.steps * cfg.batch <= 6
            and cfg.content_count + cfg.style_count <= 20)


@settings(derandomize=True, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.tuples(edits, st.just({})),
                 st.tuples(st.just([]), st.lists(st.sampled_from(TRAIN_VALUES), min_size=1,
                                                 max_size=3).map(dict))))
def test_cli_train_exit_codes_property(tmp_path_factory, capsys, change):
    """train, at level 2 and then level 1, exits 0, 2 or 3 without a traceback
    on TINY with 1-4 characters mutated or 1-3 values replaced."""
    tmp = tmp_path_factory.mktemp("train")
    cfg_path = tmp / "run.cfg"
    cfg_path.write_text(tiny_config(*change, tmp / "model"), encoding="utf-8")
    assume(trains_like_tiny(cfg_path))
    # a weight or rate of 1e30 overflows float32 on the way, as in
    # test_non_finite_gradient_exits_3; the exit code is what is checked
    with np.errstate(over="ignore", invalid="ignore"):
        for level in (2, 1):
            assert main(["train", "--config", str(cfg_path), "--level", str(level)]) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
