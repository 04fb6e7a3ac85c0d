"""Checkpoint container tests: roundtrip fidelity, byte stability, and
corruption detection."""

import struct

import numpy as np
import pytest

from cmkt import ParseError, ValidationError, encoders
from cmkt.checkpoint import (
    CHECKPOINT_MAGIC,
    Checkpoint,
    bundle_text_encoder,
    load_checkpoint,
    restore_text_encoder,
    save_checkpoint,
)
from cmkt.corpus import SPECIALS, Vocab
from cmkt.encoders import TextEncoder, TextEncoderConfig


def small_checkpoint():
    return Checkpoint(
        params={
            "b.weight": np.arange(6.0).reshape(2, 3),
            "a.bias": np.array([1.5, -2.5]),
            "scalar": np.array(3.25),
        },
        meta={"epoch": 2, "note": "unit test"},
    )


class TestRoundtrip:
    def test_params_and_meta_survive(self, tmp_path):
        path = tmp_path / "c.ckpt"
        original = small_checkpoint()
        save_checkpoint(original, path)
        loaded = load_checkpoint(path)
        assert loaded.meta == original.meta
        assert set(loaded.params) == set(original.params)
        for name in original.params:
            np.testing.assert_array_equal(loaded.params[name], original.params[name])

    def test_scalar_tensor_keeps_zero_dim_shape(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(small_checkpoint(), path)
        assert load_checkpoint(path).params["scalar"].shape == ()

    def test_params_coerced_to_float64(self):
        ckpt = Checkpoint(params={"w": np.ones(3, dtype=np.float32)})
        assert ckpt.params["w"].dtype == np.float64

    def test_loaded_arrays_are_writable_copies(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(small_checkpoint(), path)
        loaded = load_checkpoint(path)
        loaded.params["a.bias"][0] = 99.0
        assert load_checkpoint(path).params["a.bias"][0] == 1.5


class TestByteStability:
    def test_resave_is_byte_identical(self, tmp_path):
        p1 = tmp_path / "one.ckpt"
        p2 = tmp_path / "two.ckpt"
        save_checkpoint(small_checkpoint(), p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_param_insertion_order_does_not_matter(self, tmp_path):
        base = small_checkpoint()
        reordered = Checkpoint(
            params={k: base.params[k] for k in reversed(list(base.params))},
            meta=dict(base.meta),
        )
        p1 = tmp_path / "one.ckpt"
        p2 = tmp_path / "two.ckpt"
        save_checkpoint(base, p1)
        save_checkpoint(reordered, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_meta_key_order_does_not_matter(self, tmp_path):
        p1 = tmp_path / "one.ckpt"
        p2 = tmp_path / "two.ckpt"
        save_checkpoint(Checkpoint(params={}, meta={"a": 1, "b": 2}), p1)
        save_checkpoint(Checkpoint(params={}, meta={"b": 2, "a": 1}), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCorruptionDetection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(small_checkpoint(), path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTMAGIC"
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="magic"):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "c.ckpt"
        header = b'{"meta":{},"tensors":[],"version":99}'
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(ParseError, match="version"):
            load_checkpoint(path)

    def test_truncated_tensor_data(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(small_checkpoint(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(ParseError, match="past end"):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(small_checkpoint(), path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ParseError, match="trailing"):
            load_checkpoint(path)

    def test_unreadable_header_json(self, tmp_path):
        path = tmp_path / "c.ckpt"
        header = b"{not json"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(ParseError, match="header"):
            load_checkpoint(path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"CMKT")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            (b'{"meta":{},"version":1}', "tensor list"),
            (b'{"meta":{},"tensors":{"a":[2]},"version":1}', "tensor list"),
            (b'{"meta":{},"tensors":[{"shape":[2]}],"version":1}', "no name"),
            (b'{"meta":{},"tensors":["a"],"version":1}', "no name"),
            (b'{"meta":{},"tensors":[{"name":"a"}],"version":1}', "bad shape"),
            (b'{"meta":{},"tensors":[{"name":"a","shape":"2"}],"version":1}', "bad shape"),
            (b'{"meta":{},"tensors":[{"name":"a","shape":[-2]}],"version":1}', "bad shape"),
            (b'{"meta":{},"tensors":[{"name":"a","shape":[1.5]}],"version":1}', "bad shape"),
            (b'{"meta":{},"tensors":[{"name":"a","shape":[1]},{"name":"a","shape":[1]}],'
             b'"version":1}', "'a' listed twice"),
            (b'{"tensors":[],"version":1}', "metadata"),
            (b'[1]', "JSON object"),
        ],
        ids=["no-tensors", "tensors-not-list", "entry-no-name", "entry-not-object",
             "entry-no-shape", "shape-not-list", "negative-dim", "float-dim",
             "repeated-name", "no-meta", "header-not-object"],
    )
    def test_malformed_header_is_parse_error(self, tmp_path, header, message):
        path = tmp_path / "c.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", len(header)) + header
                         + np.zeros(2).tobytes())
        with pytest.raises(ParseError, match=message):
            load_checkpoint(path)


class TestEncoderBundle:
    def make_encoder(self):
        vocab = Vocab(list(SPECIALS) + ["cat", "dog", "runs", "sits"])
        config = TextEncoderConfig(
            vocab_size=len(vocab), dim=4, ffn_dim=6, num_blocks=2, max_len=6
        )
        return TextEncoder(config, seed=7), vocab

    def test_restored_encoder_reproduces_outputs(self, tmp_path):
        encoder, vocab = self.make_encoder()
        path = tmp_path / "enc.ckpt"
        save_checkpoint(bundle_text_encoder(encoder, vocab, {"epoch": 1}), path)
        restored, restored_vocab = restore_text_encoder(load_checkpoint(path))
        seqs = [[4, 6, 5], [7, 4]]
        np.testing.assert_array_equal(
            encoder.encode(seqs), restored.encode(seqs)
        )
        assert [restored_vocab.word_of(i) for i in range(len(restored_vocab))] == [
            vocab.word_of(i) for i in range(len(vocab))
        ]

    def test_bundle_keeps_caller_meta(self):
        encoder, vocab = self.make_encoder()
        ckpt = bundle_text_encoder(encoder, vocab, {"epoch": 3, "method": "MLM"})
        assert ckpt.meta["epoch"] == 3
        assert ckpt.meta["method"] == "MLM"

    def test_prefix_split_separates_text_and_image_params(self):
        encoder, vocab = self.make_encoder()
        image_params = {"proj_w": np.ones((3, 4)), "proj_b": np.zeros(4)}
        ckpt = bundle_text_encoder(encoder, vocab, {}, image_params=image_params)
        assert set(ckpt.image_params()) == {"proj_w", "proj_b"}
        assert set(ckpt.text_params()) == set(encoder.params)
        np.testing.assert_array_equal(ckpt.image_params()["proj_w"], np.ones((3, 4)))

    def test_bundle_params_are_copies(self):
        encoder, vocab = self.make_encoder()
        ckpt = bundle_text_encoder(encoder, vocab, {})
        ckpt.params["text.tok_emb"][0, 0] = 123.0
        assert encoder.params["tok_emb"][0, 0] != 123.0

    def test_restore_draws_nothing(self, monkeypatch):
        """The encoder is built from the bundle's tensors: restoring draws
        no initial weights."""
        encoder, vocab = self.make_encoder()
        ckpt = bundle_text_encoder(encoder, vocab, {})
        purposes, real = [], encoders.rng_for

        def spy(seed, purpose, *rest):
            purposes.append(purpose)
            return real(seed, purpose, *rest)

        monkeypatch.setattr(encoders, "rng_for", spy)
        restored, _ = restore_text_encoder(ckpt)
        assert "init" not in purposes
        for name, tensor in encoder.params.items():
            np.testing.assert_array_equal(restored.params[name], tensor)
            assert not np.shares_memory(restored.params[name], ckpt.params["text." + name])

    def test_restore_rejects_plain_checkpoint(self):
        with pytest.raises(ValidationError, match="bundle"):
            restore_text_encoder(small_checkpoint())

    @pytest.mark.parametrize("size", [9, 6])
    def test_restore_rejects_vocab_of_another_size(self, size):
        """An 8-word bundle whose vocab list is edited to 9 or 6 words."""
        encoder, vocab = self.make_encoder()
        ckpt = bundle_text_encoder(encoder, vocab, {})
        ckpt.meta["vocab"] = list(SPECIALS) + ["cat", "dog", "runs", "sits", "mat"][: size - 4]
        with pytest.raises(ValidationError,
                           match=f"vocab: {size} words, but encoder_config.vocab_size is 8"):
            restore_text_encoder(ckpt)

    def test_bundle_roundtrip_is_byte_identical(self, tmp_path):
        encoder, vocab = self.make_encoder()
        p1 = tmp_path / "one.ckpt"
        p2 = tmp_path / "two.ckpt"
        save_checkpoint(bundle_text_encoder(encoder, vocab, {"epoch": 1}), p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
