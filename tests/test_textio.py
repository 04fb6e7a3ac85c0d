"""The line-record reader and writer, the loaders built on them, and two
scans that keep every other module of the package from reading or writing
files itself."""

import ast
import re
from pathlib import Path

import pytest

from cmkt.corpus import Vocab, load_pairs
from cmkt.encoders import TextEncoderConfig
from cmkt.errors import ConfigError, ParseError, ValidationError
from cmkt.evaluation import FinetuneConfig, load_mcqa, load_runs
from cmkt.perturbation import Lexicon, PosTagger, load_records
from cmkt.synth import load_oracle_table
from cmkt.synth import SynthConfig
from cmkt.textio import (
    config_from,
    parse_errors,
    read_config,
    read_lines,
    read_text,
    tab_fields,
    write_bytes,
    write_lines,
)
from cmkt.training import load_similarity_set, read_loss_log

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cmkt"
READER_MODULE = "textio"  # also the only writer


class TestReadConfig:
    @pytest.mark.parametrize(
        "text,message",
        [("[1]", "JSON object"), ("{", "Expecting"), ('{"bogus": 1}', "bogus"),
         ('{"n_train_pairs": 2.6}', "SynthConfig.n_train_pairs expects int"),
         ('{"seed": true}', "SynthConfig.seed expects int"),
         ('{"noise": "x"}', "SynthConfig.noise expects float"),
         ('{"n_train_pairs": 0}', "n_train_pairs"),
         ('{"noise": NaN}', "SynthConfig.noise expects float, got nan"),
         ('{"noise": -Infinity}', "SynthConfig.noise expects float, got -inf")],
    )
    def test_bad_config_is_config_error_naming_path(self, tmp_path, text, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: ")) as info:
            read_config(SynthConfig, path)
        assert message in str(info.value)
        with pytest.raises(ParseError, match=re.escape(message)):
            read_config(SynthConfig, path, ParseError)

    def test_fields_over_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"noise": 0, "seed": 4}')
        assert read_config(SynthConfig, path) == SynthConfig(noise=0.0, seed=4)


class TestConfigFrom:
    def test_lists_become_tuples_and_fields_are_left_unchanged(self):
        fields = {"learning_rates": [0.1, 1], "seed": 2}
        config = config_from(FinetuneConfig, fields)
        assert config.learning_rates == (0.1, 1.0) and config.seed == 2
        assert fields == {"learning_rates": [0.1, 1], "seed": 2}

    @pytest.mark.parametrize("value", [8.0, "8", True])
    def test_field_without_default_checks_as_int(self, value):
        with pytest.raises(TypeError, match="TextEncoderConfig.vocab_size expects int"):
            config_from(TextEncoderConfig, {"vocab_size": value})

    def test_missing_required_field_raises(self):
        with pytest.raises(TypeError, match="vocab_size"):
            config_from(TextEncoderConfig, {"dim": 4})


class TestReadLines:
    def test_skips_blank_lines_and_counts_from_one(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_bytes(b"a\n\n \t \nb\r\nc")
        assert list(read_lines(path)) == [
            (f"{path}:1", "a"), (f"{path}:4", "b"), (f"{path}:5", "c"),
        ]

    def test_empty_file_has_no_lines(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_bytes(b"")
        assert list(read_lines(path)) == []

    def test_non_utf8_is_parse_error_naming_path(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_bytes(b"fine\n\xff\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: not UTF-8")):
            list(read_lines(path))
        with pytest.raises(ParseError, match=re.escape(str(path))):
            read_text(path)


class TestTabFields:
    def test_exact_count(self):
        assert tab_fields("a\tb c\t", 3) == ["a", "b c", ""]

    @pytest.mark.parametrize("line", ["a\tb", "a\tb\tc\td"])
    def test_wrong_count_is_value_error(self, line):
        with pytest.raises(ValueError, match="expected 3 tab-separated fields"):
            tab_fields(line, 3)


class TestParseErrors:
    @pytest.mark.parametrize(
        "exc",
        [ValueError("v"), KeyError("k"), TypeError("t"), IndexError("i"),
         ValidationError("x"), ConfigError("c")],
        ids=lambda e: type(e).__name__,
    )
    def test_row_errors_become_parse_errors_at_where(self, exc):
        with pytest.raises(ParseError, match=r"^f\.tsv:3: ") as info:
            with parse_errors("f.tsv:3"):
                raise exc
        assert info.value.__cause__ is exc

    def test_missing_key_is_named_as_a_field(self):
        with pytest.raises(ParseError, match="missing field 'gold'"):
            with parse_errors("f.jsonl:1"):
                {}["gold"]

    @pytest.mark.parametrize("exc", [RuntimeError("r"), ParseError("p")])
    def test_other_errors_pass_through(self, exc):
        with pytest.raises(type(exc)) as info:
            with parse_errors("f.tsv:3"):
                raise exc
        assert info.value is exc


class TestWriteBytes:
    def test_writes_exactly_the_bytes(self, tmp_path):
        path = tmp_path / "f.bin"
        write_bytes(path, b"\x00\xff\r\n")
        assert path.read_bytes() == b"\x00\xff\r\n"

    def test_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"a longer earlier content")
        write_bytes(path, b"short")
        assert path.read_bytes() == b"short"

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        """A write that dies halfway (a full disk, a kill) leaves the old
        bytes in place and no temporary file behind."""
        path = tmp_path / "f.ckpt"
        path.write_bytes(b"previous checkpoint")

        def half_then_fail(self, data):
            with open(self, "wb") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
        with pytest.raises(OSError, match="No space"):
            write_bytes(path, b"a new checkpoint of some length")
        monkeypatch.undo()
        assert path.read_bytes() == b"previous checkpoint"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.ckpt"]


class TestWriteLines:
    def test_each_line_ends_with_a_newline(self, tmp_path):
        path = tmp_path / "f.txt"
        write_lines(path, ["a", "ünï"])
        assert path.read_bytes() == "a\nünï\n".encode("utf-8")

    def test_no_lines_make_an_empty_file(self, tmp_path):
        path = tmp_path / "f.txt"
        write_lines(path, iter(()))
        assert path.read_bytes() == b""

    def test_line_end_is_chosen_by_caller(self, tmp_path):
        path = tmp_path / "f.csv"
        write_lines(path, ["a,b", "1,2"], end="\r\n")
        assert path.read_bytes() == b"a,b\r\n1,2\r\n"

    def test_reader_roundtrip(self, tmp_path):
        path = tmp_path / "f.txt"
        write_lines(path, ["x\ty", "z"])
        assert [line for _, line in read_lines(path)] == ["x\ty", "z"]


# one valid line per text format, and the loader that reads it
TEXT_FORMATS = {
    "pairs.tsv": (load_pairs, "img0\ta red cat\ttrain"),
    "vocab.txt": (Vocab.load, "[pad]\n[unk]\n[mask]\n[sep]\ncat"),
    "lexicon.tsv": (Lexicon.load, "cat\tsyn\tkitten"),
    "postags.tsv": (PosTagger.load, "cat\tnoun"),
    "perturb.tsv": (load_records, "a red cat\t2\tcat\tdog\tadversarial_negative"),
    "mcqa.jsonl": (load_mcqa, '{"question": "q", "choices": ["a", "b"], "gold": 0, '
                              '"split": "train"}'),
    "runs.jsonl": (load_runs, '{"accuracies": [0.5], "dataset": "d", "learning_rate": 0.1, '
                              '"method": "MLM", "seeds": [0], "size": "64"}'),
    "heldout.tsv": (load_similarity_set, "a\tb\t0.5"),
    "loss.csv": (read_loss_log, "step,epoch,mlm,total\n0,1,0.5,0.5"),
    "oracle.tsv": (load_oracle_table, "cat\tdog\tbird"),
}


@pytest.mark.parametrize("name", sorted(TEXT_FORMATS))
def test_loader_reads_valid_line(tmp_path, name):
    load, content = TEXT_FORMATS[name]
    path = tmp_path / name
    path.write_text(content + "\n", encoding="utf-8")
    assert load(path)


@pytest.mark.parametrize("name", sorted(TEXT_FORMATS))
def test_non_utf8_byte_is_parse_error_naming_path(tmp_path, name):
    load, content = TEXT_FORMATS[name]
    path = tmp_path / name
    path.write_bytes(content.encode("utf-8") + b"\n\xff\n")
    with pytest.raises(ParseError, match=re.escape(str(path))):
        load(path)


def test_superscript_position_is_parse_error_with_line(tmp_path):
    path = tmp_path / "perturb.tsv"
    path.write_text("a red cat\t²\tcat\tdog\tadversarial_negative\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}:1: ")):
        load_records(path)


def test_duplicate_vocab_line_is_parse_error_naming_path(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("[pad]\n[unk]\n[mask]\n[sep]\ncat\ncat\n", encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}: duplicate")):
        Vocab.load(path)


# ---------------------------------------------------------------------------
# only the reader module reads files
# ---------------------------------------------------------------------------


def _open_mode(call: ast.Call):
    """The mode node of an ``open`` call: the second positional argument of
    ``open``/``io.open``, the first of ``Path.open``, or ``mode=``."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    func = call.func
    builtin = isinstance(func, ast.Name) or (
        isinstance(func.value, ast.Name) and func.value.id in ("io", "codecs")
    )
    position = 1 if builtin else 0
    return call.args[position] if len(call.args) > position else None


def _reads(call: ast.Call) -> bool:
    mode = _open_mode(call)
    if mode is None:
        return True  # the default mode is "r"
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a computed mode may well be "r"
    return not set("wax") & set(mode.value)


def file_reads(source: str, module: str) -> list[str]:
    """Calls that read a file, as text or as bytes: ``.read_text(``,
    ``.read_bytes(``, and ``open`` with no mode or a mode that does not
    write."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("read_text", "read_bytes") and isinstance(func, ast.Attribute):
            found.append(f"{module}.py:{node.lineno}: {name}")
        elif name == "open" and _reads(node):
            found.append(f"{module}.py:{node.lineno}: open")
    return sorted(found)


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != READER_MODULE],
    ids=lambda p: p.stem,
)
def test_no_module_reads_text_but_the_reader(path):
    """Nor bytes: the binary containers and the manifest's input digests
    are read there too."""
    assert file_reads(path.read_text(encoding="utf-8"), path.stem) == []


def test_scan_finds_text_reads():
    source = (
        "import io\n"
        "from pathlib import Path\n"
        "a = Path('x').read_text()\n"
        "b = open('x')\n"
        "c = open('x', 'rb')\n"
        "d = open('x', mode='w', encoding='utf-8')\n"
        "e = io.open('x', 'r', encoding='utf-8')\n"
        "f = Path('x').open()\n"
        "g = Path('x').open('wb')\n"
        "h = open('x', 'r+')\n"
        "i = Path('x').read_bytes()\n"
        "j = Path('x').open('rb')\n"
        "k = io.open('x', mode='ab')\n"
    )
    assert file_reads(source, "m") == [
        "m.py:10: open", "m.py:11: read_bytes", "m.py:12: open", "m.py:3: read_text",
        "m.py:4: open", "m.py:5: open", "m.py:7: open", "m.py:8: open",
    ]


# ---------------------------------------------------------------------------
# only the writer module writes files
# ---------------------------------------------------------------------------


def _writes(call: ast.Call) -> bool:
    mode = _open_mode(call)
    if mode is None:
        return False  # the default mode is "r"
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a computed mode may well write
    return bool(set("wax+") & set(mode.value))


def file_writes(source: str, module: str) -> list[str]:
    """Calls that write a file: ``.write_bytes(``, ``.write_text(``, and
    ``open`` with a mode that writes, appends, creates or updates."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_bytes", "write_text") and isinstance(func, ast.Attribute):
            found.append(f"{module}.py:{node.lineno}: {name}")
        elif name == "open" and _writes(node):
            found.append(f"{module}.py:{node.lineno}: open")
    return sorted(found)


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != READER_MODULE],
    ids=lambda p: p.stem,
)
def test_no_module_writes_files_but_the_writer(path):
    assert file_writes(path.read_text(encoding="utf-8"), path.stem) == []


def test_scan_finds_file_writes():
    source = (
        "import io\n"
        "from pathlib import Path\n"
        "Path('x').write_bytes(b'')\n"
        "Path('x').write_text('')\n"
        "a = open('x')\n"
        "b = open('x', 'wb')\n"
        "c = io.open('x', mode='a', encoding='utf-8')\n"
        "d = Path('x').open('x')\n"
        "e = open('x', 'r+b')\n"
        "f = Path('x').open('rb')\n"
        "write_bytes('x', b'')\n"
    )
    assert file_writes(source, "m") == [
        "m.py:3: write_bytes", "m.py:4: write_text", "m.py:6: open", "m.py:7: open",
        "m.py:8: open", "m.py:9: open",
    ]
