import hashlib
import json
import os
import random
import stat
import struct
import threading
import time
import tracemalloc

import pytest

from swipe.cli import build_parser, main
from swipe.config import TrainConfig
from swipe.model import PASS_BYTES, ModelConfig, SwipeModel


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = run(["synth", "--docs", 80, "--labels", 2, "--segments-per-doc", "6",
                "--filler-vocab", 50, "--seed", 13, "--out", out])
    assert code == 0
    return out


class TestSynth:
    def test_writes_corpus_and_keymap(self, synth_dir):
        assert (synth_dir / "corpus.jsonl").exists()
        assert (synth_dir / "keymap.jsonl").exists()
        first = json.loads((synth_dir / "corpus.jsonl").read_text().splitlines()[0])
        assert set(first) >= {"id", "units", "labels", "split"}

    def test_rerun_same_seed_identical_files(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["synth", "--docs", 30, "--seed", 13, "--out", out]) == 0
        assert (out1 / "corpus.jsonl").read_bytes() == (out2 / "corpus.jsonl").read_bytes()
        assert (out1 / "keymap.jsonl").read_bytes() == (out2 / "keymap.jsonl").read_bytes()

    def test_invalid_vocab_exits_nonzero(self, tmp_path, capsys):
        code = run(["synth", "--docs", 10, "--key-vocab", 0, "--out", tmp_path])
        assert code != 0
        assert "error:" in capsys.readouterr().err


def _train(synth_dir, tmp_path, extra=()):
    ckpt = tmp_path / "model.ckpt"
    code = run([
        "train", "--corpus", synth_dir / "corpus.jsonl", "--task", "multi-label",
        "--truncate", "structure", "--pooling", "max", "--ngram-orders", "1",
        "--buckets", 1024, "--dim", 16, "--epochs", 4, "--lr", 0.05,
        "--batch-size", 16, "--seed", 5, "--out", ckpt, *extra,
    ])
    assert code == 0
    return ckpt


class TestTrain:
    def test_writes_checkpoint_and_metrics(self, synth_dir, tmp_path, capsys):
        ckpt = _train(synth_dir, tmp_path)
        assert ckpt.exists()
        metrics = tmp_path / "model.ckpt.metrics.csv"
        assert metrics.exists()
        lines = metrics.read_text().strip().splitlines()
        assert lines[0] == "epoch,step,lr,train_loss,dev_metric"
        assert len(lines) == 5
        assert "final_dev_metric=" in capsys.readouterr().out

    def test_metric_log_bit_identical_across_runs(self, synth_dir, tmp_path):
        a = tmp_path / "runa.ckpt"
        b = tmp_path / "runb.ckpt"
        for out in (a, b):
            run(["train", "--corpus", synth_dir / "corpus.jsonl", "--task", "multi-label",
                 "--truncate", "structure", "--pooling", "max", "--epochs", 3,
                 "--lr", 0.05, "--seed", 5, "--dim", 16, "--buckets", 512, "--out", out])
        assert (tmp_path / "runa.ckpt.metrics.csv").read_bytes() == \
            (tmp_path / "runb.ckpt.metrics.csv").read_bytes()
        assert a.read_bytes() == b.read_bytes()

    def test_missing_corpus_exits_nonzero(self, tmp_path, capsys):
        code = run(["train", "--corpus", tmp_path / "nope.jsonl",
                    "--out", tmp_path / "m.ckpt"])
        assert code != 0
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("joined", [False, True], ids=["--config FILE", "--config=FILE"])
    def test_config_file_provides_defaults(self, synth_dir, tmp_path, joined):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "truncate = structure\npooling = max\nepochs = 2\n"
            "lr = 0.05\ndim = 16\nbuckets = 512\nngram-orders = 1\n"
        )
        ckpt = tmp_path / "from_config.ckpt"
        config = [f"--config={cfg}"] if joined else ["--config", cfg]
        code = run(["train", *config, "--corpus", synth_dir / "corpus.jsonl",
                    "--task", "multi-label", "--seed", 5, "--out", ckpt])
        assert code == 0
        meta = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
        assert meta["config"]["truncation"]["strategy"] == "structure"
        assert meta["train_config"]["epochs"] == 2


class TestPredictExplainEval:
    def test_predict_records_shape(self, synth_dir, tmp_path):
        ckpt = _train(synth_dir, tmp_path)
        out = tmp_path / "preds.jsonl"
        code = run(["predict", "--checkpoint", ckpt,
                    "--corpus", synth_dir / "corpus.jsonl", "--out", out])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 80
        rec = records[0]
        assert set(rec) == {"doc_id", "labels", "per_label"}
        assert len(rec["per_label"]) == 2
        entry = rec["per_label"][0]
        assert set(entry) == {"label", "y", "bit", "key_segment",
                              "positive_segments", "segment_scores"}

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_predict_writes_into_a_pipe_in_place(self, synth_dir, tmp_path):
        # an --out that is no regular file (/dev/stdout, a pipe) is not
        # replaced by a renamed temporary file
        ckpt = _train(synth_dir, tmp_path)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
        reader.start()
        assert run(["predict", "--checkpoint", ckpt, "--corpus", synth_dir / "corpus.jsonl",
                    "--out", pipe]) == 0
        reader.join(timeout=60)
        assert not reader.is_alive() and len(got[0].splitlines()) == 80
        assert stat.S_ISFIFO(pipe.stat().st_mode)

    def test_predict_through_a_link_writes_its_target(self, synth_dir, tmp_path):
        ckpt = _train(synth_dir, tmp_path)
        target, link = tmp_path / "preds.jsonl", tmp_path / "link.jsonl"
        target.write_text("old\n")
        link.symlink_to(target)
        assert run(["predict", "--checkpoint", ckpt, "--corpus", synth_dir / "corpus.jsonl",
                    "--out", link]) == 0
        assert link.is_symlink() and len(target.read_text().splitlines()) == 80

    def test_explain_includes_key_text_and_soundness(self, synth_dir, tmp_path):
        ckpt = _train(synth_dir, tmp_path)
        out = tmp_path / "explained.jsonl"
        assert run(["explain", "--checkpoint", ckpt,
                    "--corpus", synth_dir / "corpus.jsonl", "--out", out]) == 0
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            for entry in rec["per_label"]:
                assert "key_segment_text" in entry
                if entry["bit"] == 1:  # max pooling: positive doc bit
                    assert entry["key_segment"] in entry["positive_segments"]

    def test_eval_report_with_keymap(self, synth_dir, tmp_path):
        ckpt = _train(synth_dir, tmp_path)
        out = tmp_path / "report.json"
        code = run(["eval", "--checkpoint", ckpt,
                    "--corpus", synth_dir / "corpus.jsonl",
                    "--keymap", synth_dir / "keymap.jsonl",
                    "--split", "test", "--out", out])
        assert code == 0
        report = json.loads(out.read_text())
        for key in ("accuracy", "micro_f1", "macro_f1",
                    "segment_micro_f1", "key_segment_recovery"):
            assert key in report
        assert report["split"] == "test"

    def test_eval_keymap_unknown_label_exits_2(self, synth_dir, tmp_path, capsys):
        ckpt = _train(synth_dir, tmp_path)
        keymap = tmp_path / "keymap.jsonl"
        lines = (synth_dir / "keymap.jsonl").read_text().splitlines()
        lines[2] = lines[2].replace('"label0"', '"zzz"').replace('"label1"', '"zzz"')
        keymap.write_text("\n".join(lines) + "\n")
        code = run(["eval", "--checkpoint", ckpt, "--corpus", synth_dir / "corpus.jsonl",
                    "--keymap", keymap, "--out", tmp_path / "report.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{keymap}:3: " in err and "'zzz'" in err

    def test_eval_empty_split_exits_2(self, synth_dir, tmp_path, capsys):
        ckpt = _train(synth_dir, tmp_path)
        code = run(["eval", "--checkpoint", ckpt, "--corpus", synth_dir / "corpus.jsonl",
                    "--split", "none", "--out", tmp_path / "report.json"])
        assert code == 2
        assert "error: split 'none' is empty" in capsys.readouterr().err

    def test_checkpoint_roundtrip_predictions_identical(self, synth_dir, tmp_path):
        ckpt = _train(synth_dir, tmp_path)
        out1, out2 = tmp_path / "p1.jsonl", tmp_path / "p2.jsonl"
        for out in (out1, out2):
            assert run(["predict", "--checkpoint", ckpt,
                        "--corpus", synth_dir / "corpus.jsonl", "--out", out]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_checkpoint_with_trailing_bytes_rejected(self, synth_dir, tmp_path, capsys):
        ckpt = _train(synth_dir, tmp_path)
        with ckpt.open("ab") as fh:
            fh.write(b"junk")
        code = run(["predict", "--checkpoint", ckpt,
                    "--corpus", synth_dir / "corpus.jsonl", "--out", tmp_path / "p.jsonl"])
        assert code == 2
        assert "trailing bytes" in capsys.readouterr().err

    def test_bad_checkpoint_path_exits_nonzero(self, synth_dir, tmp_path, capsys):
        code = run(["predict", "--checkpoint", tmp_path / "missing.ckpt",
                    "--corpus", synth_dir / "corpus.jsonl",
                    "--out", tmp_path / "o.jsonl"])
        assert code != 0


class TestSufficiencyAndScale:
    def test_sufficiency_command(self, synth_dir, tmp_path, capsys):
        ckpt = _train(synth_dir, tmp_path)
        out = tmp_path / "sufficiency.json"
        code = run(["sufficiency", "--checkpoint", ckpt,
                    "--corpus", synth_dir / "corpus.jsonl",
                    "--probe-epochs", 2, "--seed", 3, "--out", out])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 1
        assert "swipe=" in capsys.readouterr().out

    def test_scale_command_monotone_csv(self, tmp_path):
        out = tmp_path / "scale.csv"
        code = run(["scale", "--segments", "2,4", "--trials", 3, "--out", out])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("args", [
        ["--trials", 0], ["--trials", -2], ["--tokens-per-segment", 0], ["--segments", ""],
        ["--segments", "4,4"], ["--segments", "0"], ["--segments", "2,-1"],
    ])
    def test_scale_rejects_a_bad_flag_exit_2(self, tmp_path, capsys, args):
        out = tmp_path / "scale.csv"
        assert run(["scale", "--segments", "2", "--trials", 1, *args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestPrecomputedVectors:
    @pytest.fixture()
    def vectors_setup(self, tmp_path):
        import numpy as np
        from swipe.corpus import Corpus, Document, LabelVocab, write_jsonl
        from swipe.encoder import SegmentMatrix
        from swipe.model import write_precomputed

        rng = np.random.default_rng(0)
        docs, mats = [], {}
        for i in range(40):
            doc_id = f"v{i}"
            label = "a" if i % 2 == 0 else "b"
            split = "train" if i < 30 else ("dev" if i < 35 else "test")
            docs.append(Document(id=doc_id, text="placeholder", labels=(label,),
                                 split=split))
            rows = rng.normal(size=(3, 6)) + (1.0 if label == "a" else -1.0)
            mats[doc_id] = SegmentMatrix(doc_id=doc_id, rows=rows)
        corpus = Corpus(documents=docs, vocab=LabelVocab(("a", "b"), "multi-class"))
        corpus_path = tmp_path / "corpus.jsonl"
        vectors_path = tmp_path / "vectors.bin"
        write_jsonl(corpus, corpus_path)
        write_precomputed(mats, vectors_path)
        return corpus_path, vectors_path

    def test_train_and_predict_with_frozen_vectors(self, vectors_setup, tmp_path):
        corpus_path, vectors_path = vectors_setup
        ckpt = tmp_path / "vec.ckpt"
        code = run(["train", "--corpus", corpus_path, "--task", "multi-class",
                    "--vectors", vectors_path, "--pooling", "sum",
                    "--epochs", 5, "--lr", 0.1, "--seed", 0, "--out", ckpt])
        assert code == 0
        meta = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
        assert meta["config"]["encoder_mode"] == "precomputed"
        assert meta["config"]["dim"] == 6  # taken from the sidecar header
        out = tmp_path / "preds.jsonl"
        assert run(["predict", "--checkpoint", ckpt, "--corpus", corpus_path,
                    "--vectors", vectors_path, "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 40

    def test_predict_without_vectors_fails(self, vectors_setup, tmp_path, capsys):
        corpus_path, vectors_path = vectors_setup
        ckpt = tmp_path / "vec.ckpt"
        run(["train", "--corpus", corpus_path, "--task", "multi-class",
             "--vectors", vectors_path, "--epochs", 2, "--lr", 0.1, "--out", ckpt])
        code = run(["predict", "--checkpoint", ckpt, "--corpus", corpus_path,
                    "--out", tmp_path / "p.jsonl"])
        assert code != 0
        assert "--vectors" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "explain", "eval", "sufficiency"])
    def test_hash_checkpoint_rejects_vectors(self, vectors_setup, tmp_path, capsys, command):
        corpus_path, vectors_path = vectors_setup
        ckpt = tmp_path / "hash.ckpt"
        assert run(["train", "--corpus", corpus_path, "--task", "multi-class",
                    "--epochs", 1, "--out", ckpt]) == 0
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert run([command, "--checkpoint", ckpt, "--corpus", corpus_path,
                    "--vectors", vectors_path, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: checkpoint uses the hash encoder, which takes no --vectors\n")
        assert not out.exists()

    def test_dimension_mismatch_diagnostic(self, vectors_setup, tmp_path, capsys):
        import numpy as np
        from swipe.encoder import SegmentMatrix
        from swipe.model import write_precomputed

        corpus_path, vectors_path = vectors_setup
        ckpt = tmp_path / "vec.ckpt"
        run(["train", "--corpus", corpus_path, "--task", "multi-class",
             "--vectors", vectors_path, "--epochs", 2, "--lr", 0.1, "--out", ckpt])
        wrong = tmp_path / "wrong.bin"
        write_precomputed(
            {"v0": SegmentMatrix(doc_id="v0", rows=np.ones((2, 9)))}, wrong
        )
        code = run(["predict", "--checkpoint", ckpt, "--corpus", corpus_path,
                    "--vectors", wrong, "--out", tmp_path / "p.jsonl"])
        assert code != 0
        assert "h=9" in capsys.readouterr().err

    @staticmethod
    def _edited(vectors_path, tmp_path, header_edit=None, payload_edit=None):
        """A copy of the sidecar with its payload edited, then its header: an
        edited payload's SHA-256 is recorded, so that what is refused is the
        edit, not the checksum."""
        import numpy as np

        line, payload = vectors_path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        if payload_edit:
            payload = payload_edit(payload, np.frombuffer(payload, dtype="<f4").copy())
            header["sha256"] = hashlib.sha256(payload).hexdigest()
        if header_edit:
            header_edit(header)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        return bad

    @staticmethod
    def _poison(value):
        """A payload edit that writes `value` into row 0 of document v3 (after
        v0-v2, three rows of six each)."""
        def edit(payload, floats):
            floats[3 * 3 * 6 + 2] = value
            return floats.tobytes()
        return edit

    @pytest.mark.parametrize("header_edit, payload_edit, expected", [
        (None, lambda payload, _: payload[:-4], "truncated tensor v39"),
        (None, lambda payload, _: payload + bytes(4), "trailing bytes after the last tensor"),
        (None, _poison(float("nan")), "tensor v3 holds nan at flat index 2"),
        (None, _poison(float("-inf")), "tensor v3 holds -inf at flat index 2"),
        (lambda h: h["documents"][1].__setitem__(0, "v0"), None, "duplicate doc_id 'v0'"),
        (lambda h: h.__setitem__("h", 0), None, "h must be an integer >= 1, got 0"),
        (lambda h: h["documents"][0].__setitem__(1, 0), None,
         "documents entries must be [str, int >= 1], got ['v0', 0]"),
        (lambda h: h["documents"][0].__setitem__(0, 3), None,
         "documents entries must be [str, int >= 1], got [3, 3]"),
        (lambda h: h.__setitem__("documents", []), None, "documents must be a non-empty"),
        (lambda h: h.__setitem__("format", "swipe-checkpoint"), None,
         "not a version-2 vectors sidecar: format 'swipe-checkpoint'"),
        (lambda h: h.__setitem__("version", 3), None, "not a version-2 vectors sidecar"),
        (lambda h: h.__setitem__("version", 1), None,
         "version-1 vectors sidecar; write it again"),
        (lambda h: h.__setitem__("extra", 1), None, "vectors sidecar header must hold the keys"),
        (lambda h: h.__setitem__("dtype", "float64"), None,
         "vectors sidecar payload dtype must be 'float32', got 'float64'"),
        (lambda h: h.__setitem__("sha256", "0" * 63), None,
         "vectors sidecar sha256 must be 64 lowercase hex digits"),
        (lambda h: h.__setitem__("sha256", "0" * 64), None,
         "payload does not match the header's sha256"),
    ], ids=["truncated", "trailing", "nan", "inf", "duplicate-id", "h-0", "rows-0",
            "int-id", "no-documents", "format", "version", "version-1", "extra-key",
            "dtype", "short-sha256", "wrong-sha256"])
    def test_malformed_sidecar_exits_2(self, vectors_setup, tmp_path, capsys,
                                       header_edit, payload_edit, expected):
        corpus_path, vectors_path = vectors_setup
        bad = self._edited(vectors_path, tmp_path, header_edit, payload_edit)
        out = tmp_path / "vec.ckpt"
        code = run(["train", "--corpus", corpus_path, "--task", "multi-class",
                    "--vectors", bad, "--out", out])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and expected in err and err.count("\n") == 1

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_a_flipped_payload_byte_exits_2(self, vectors_setup, tmp_path, capsys, where):
        corpus_path, vectors_path = vectors_setup
        data = bytearray(vectors_path.read_bytes())
        data[data.index(b"\n") + 1 if where == "first" else -1] ^= 1
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(data))
        out = tmp_path / "vec.ckpt"
        assert run(["train", "--corpus", corpus_path, "--task", "multi-class",
                    "--vectors", bad, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: payload does not match the header's sha256: the file is corrupt\n")
        assert not out.exists()

    def test_old_jsonl_sidecar_exits_2(self, vectors_setup, tmp_path, capsys):
        corpus_path, vectors_path = vectors_setup
        ckpt = tmp_path / "vec.ckpt"
        assert run(["train", "--corpus", corpus_path, "--task", "multi-class",
                    "--vectors", vectors_path, "--epochs", 1, "--out", ckpt]) == 0
        capsys.readouterr()
        old = tmp_path / "vectors.jsonl"
        old.write_text('{"h": 6}\n{"doc_id": "v0", "vectors": [[1, 2, 3, 4, 5, 6]]}\n')
        out = tmp_path / "p.jsonl"
        assert run(["predict", "--checkpoint", ckpt, "--corpus", corpus_path,
                    "--vectors", old, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {old}: not a version-2 vectors sidecar: format None\n")
        assert not out.exists()

    def test_sidecar_claiming_huge_rows_exits_2_before_allocating(
            self, vectors_setup, tmp_path, capsys):
        corpus_path, vectors_path = vectors_setup
        bad = self._edited(vectors_path, tmp_path,
                           lambda h: h["documents"][0].__setitem__(1, 10**30))
        start = time.perf_counter()
        code = run(["train", "--corpus", corpus_path, "--task", "multi-class",
                    "--vectors", bad, "--out", tmp_path / "vec.ckpt"])
        assert code == 2 and time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith(f"error: {bad}: truncated tensor v0\n")


def test_gated_sum_with_two_interaction_layers_trains(synth_dir, tmp_path):
    ckpt = tmp_path / "g2t.ckpt"
    code = run([
        "train", "--corpus", synth_dir / "corpus.jsonl", "--task", "multi-label",
        "--truncate", "structure", "--pooling", "gated_sum",
        "--interaction-layers", 2, "--ngram-orders", "1", "--buckets", 512,
        "--dim", 16, "--epochs", 3, "--lr", 0.01, "--seed", 5, "--out", ckpt,
    ])
    assert code == 0
    meta = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
    names = [t["name"] for t in meta["tensors"]]
    assert "interaction.1.wq" in names
    assert "interaction.final_gain" in names


class TestParsing:
    def test_unknown_pooling_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["train", "--corpus", "x.jsonl", "--pooling", "mean",
                 "--out", tmp_path / "m.ckpt"])

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not key value\n")
        code = run(["synth", "--config", cfg, "--out", tmp_path])
        assert code != 0
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("config_text, expected", [
        (None, "--config needs a file path"),
        ("pooling = bogus\n", "pooling='bogus'"),
        ("epochs = abc\n", "epochs='abc'"),
    ])
    def test_bad_config_values_exit_2(self, tmp_path, capsys, config_text, expected):
        args = ["predict", "--checkpoint", "m.ckpt", "--corpus", "c.jsonl",
                "--out", tmp_path / "p.jsonl", "--config"]
        if config_text is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config_text)
            args.append(cfg)
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epoch = 3\n")
        assert run(["synth", "--config", cfg, "--out", tmp_path]) == 2
        assert "error: unknown config key 'epoch'" in capsys.readouterr().err

    def test_config_key_inside_a_config_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# nested\nepochs = 3\nconfig = nothere.cfg\n")
        assert run(["synth", "--config", cfg, "--out", tmp_path]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:3: a config file cannot set 'config'\n")

    @pytest.mark.parametrize("flags, expected", [
        (["--ngram-orders", "0"], "ngram order must be an integer >= 1, got 0"),
        (["--ngram-orders", ","], "ngram_orders must not be empty"),
        (["--ff-dim", "-1", "--interaction-layers", "1"], "ff_dim must be an integer >= 1"),
        (["--ngram-orders", "1,1,2"], "ngram_orders repeat an order: [1, 1, 2]"),
        (["--max-positions", "-1", "--interaction-layers", "1"],
         "max_positions must be an integer >= 1"),
        (["--max-positions", "-5"], "max_positions must be an integer >= 1, got -5"),
        (["--max-positions", "8"], "max_positions 8 needs interaction layers"),
        (["--ff-dim", "8", "--interaction-layers", "0"], "ff_dim 8 needs interaction layers"),
        (["--lr", "nan"], "base_lr must be a finite number > 0, got nan"),
        (["--lr", "0"], "base_lr must be a finite number > 0, got 0.0"),
        (["--epochs", "0"], "epochs must be an integer >= 1, got 0"),
        (["--batch-size", "0"], "batch_size must be an integer >= 1, got 0"),
    ])
    def test_bad_model_flags_exit_2(self, synth_dir, tmp_path, capsys, flags, expected):
        out = tmp_path / "m.ckpt"
        code = run(["train", "--corpus", synth_dir / "corpus.jsonl", "--task", "multi-label",
                    *flags, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err
        # rejected before training: no metrics log, no checkpoint
        assert not out.exists() and not (tmp_path / "m.ckpt.metrics.csv").exists()

    @pytest.mark.parametrize("key, value, expected", [
        ("pooling", "bogus", "'bogus' is not a valid Pooling"),
        ("dim", "x", "dim must be an integer >= 1, got 'x'"),
        ("ngram_orders", [0], "ngram order must be an integer >= 1, got 0"),
        ("ngram_orders", [1, 1, 2], "bad checkpoint config: ngram_orders repeat an order"),
        ("max_positions", 8, "bad checkpoint config: max_positions 8 needs interaction layers"),
        ("ff_dim", 8, "bad checkpoint config: ff_dim 8 needs interaction layers"),
        ("labels", [1, 2], "labels must be strings"),
        ("truncation", {"strategy": "auto", "window_len": 3.5, "overlap": 0, "max_seg_len": 64,
                        "sentence_terminators": ["."]}, "window_len must be an integer"),
        ("extra", 1, "unknown ['extra']"),
        ("hash_seed", None, "missing ['hash_seed']"),  # None deletes the key
        (None, None, "checkpoint header is not a JSON object"),  # header becomes a list
        (("train_config",), "junk", "TrainConfig must be a JSON object, got 'junk'"),
        (("train_config", "epochs"), None, "TrainConfig keys: missing ['epochs']"),
        (("train_config", "extra"), 1, "TrainConfig keys: missing [], unknown ['extra']"),
        (("train_config", "base_lr"), -1.0, "base_lr must be a finite number > 0, got -1.0"),
        (("tensors",), None, "checkpoint header must hold the keys"),
        (("tensors", 0), [1], "tensor manifest entries must be"),
        (("tensors", 0, "shape"), [16.0, 4], "got {'name': 'encoder.table', 'shape': [16.0, 4]}"),
        (("tensors", 0, "shape"), [-1], "tensor manifest entries must be"),
        (("version",), True, "not a version-2 checkpoint"),
        (("version",), 1, "version-1 checkpoint; retrain"),
        (("dtype",), "float64", "checkpoint payload dtype must be 'float32', got 'float64'"),
        (("sha256",), None, "checkpoint header must hold the keys"),
        (("sha256",), "A" * 64, "checkpoint sha256 must be 64 lowercase hex digits"),
    ])
    def test_malformed_checkpoint_config_exit_2(self, tmp_path, capsys, key, value, expected):
        """`key` is a path into the header, or a key of its "config" object."""
        ckpt = tmp_path / "m.ckpt"
        model = SwipeModel.create(ModelConfig(labels=("a", "b"), n_buckets=16, dim=4))
        model.train_config = TrainConfig()
        model.save(ckpt)
        line, tensors = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        if key is None:
            header = [header]
        else:
            *parents, last = ("config", key) if isinstance(key, str) else key
            node = header
            for part in parents:
                node = node[part]
            if value is None:
                del node[last]
            else:
                node[last] = value
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + tensors)
        code = run(["predict", "--checkpoint", ckpt, "--corpus", tmp_path / "c.jsonl",
                    "--out", tmp_path / "p.jsonl"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and expected in err

    @pytest.mark.parametrize("key, in_manifest, expected", [
        ("interaction_layers", False, "tensor manifest does not match architecture"),
        ("n_buckets", False, "tensor encoder.table has shape (16, 4), expected"),
        ("n_buckets", True, "truncated tensor encoder.table"),
    ])
    def test_checkpoint_claiming_a_huge_model_exits_2_before_allocating(
            self, tmp_path, capsys, key, in_manifest, expected):
        """A small checkpoint whose header claims 10**30 layers or buckets is
        rejected from the header and the file size alone."""
        ckpt = tmp_path / "m.ckpt"
        SwipeModel.create(ModelConfig(labels=("a", "b"), n_buckets=16, dim=4)).save(ckpt)
        line, tensors = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        header["config"][key] = 10**30
        if in_manifest:
            header["tensors"][0]["shape"][0] = 10**30
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + tensors)
        start = time.perf_counter()
        code = run(["predict", "--checkpoint", ckpt, "--corpus", tmp_path / "c.jsonl",
                    "--out", tmp_path / "p.jsonl"])
        assert code == 2 and time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and expected in err

    @pytest.mark.parametrize("record", [
        {"id": "a", "text": "hello \ud800 world", "labels": ["a"]},
        {"id": "a", "units": [1, {"a": 2}, None], "labels": ["a"]},
    ])
    def test_corpus_entry_that_is_no_utf8_string_exits_2(self, tmp_path, capsys, record):
        ckpt, corpus = tmp_path / "m.ckpt", tmp_path / "c.jsonl"
        SwipeModel.create(ModelConfig(labels=("a", "b"), n_buckets=16, dim=4)).save(ckpt)
        corpus.write_text(json.dumps(record) + "\n")
        code = run(["predict", "--checkpoint", ckpt, "--corpus", corpus,
                    "--out", tmp_path / "p.jsonl"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {corpus}:1: ")

    @pytest.mark.parametrize("command", ["train", "predict", "eval-keymap", "config"])
    def test_input_that_is_no_utf8_exits_2_and_keeps_out(self, tmp_path, capsys, command):
        """Byte 0xff on line 2 of a corpus, key map or config file."""
        ckpt, corpus = _saved_model(tmp_path), _labelled_corpus(tmp_path, ["a"])
        corpus_lines = b'{"id": "x0", "text": "word", "labels": ["a"]}\n{"id": "caf\xff"}\n'
        bad = tmp_path / "bad"
        bad.write_bytes({
            "eval-keymap": b'{"doc_id": "d0", "label": "a", "key_segments": [0]}\n'
                           b'{"doc_id": "d1", "label": "a", "key_segments": [\xff]}\n',
            "config": b"epochs = 2\n# caf\xff\n",
        }.get(command, corpus_lines))
        out = tmp_path / "out"
        out.write_bytes(b"old")
        args = {"train": ["train", "--corpus", bad, "--task", "multi-class"],
                "predict": ["predict", "--checkpoint", ckpt, "--corpus", bad],
                "eval-keymap": ["eval", "--checkpoint", ckpt, "--corpus", corpus,
                                "--keymap", bad],
                "config": ["train", "--corpus", corpus, "--config", bad]}[command]
        assert run([*args, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {bad}:2: not valid UTF-8\n"
        assert out.read_bytes() == b"old"

    @pytest.mark.parametrize("doc_id", [None, {"a": 2}])
    def test_corpus_id_neither_string_nor_integer_exits_2(self, tmp_path, capsys, doc_id):
        ckpt, corpus = tmp_path / "m.ckpt", tmp_path / "c.jsonl"
        SwipeModel.create(ModelConfig(labels=("a", "b"), n_buckets=16, dim=4)).save(ckpt)
        corpus.write_text(json.dumps({"id": doc_id, "text": "x", "labels": ["a"]}) + "\n")
        code = run(["predict", "--checkpoint", ckpt, "--corpus", corpus,
                    "--out", tmp_path / "p.jsonl"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {corpus}:1: 'id' must be a string")

    @pytest.mark.parametrize("args, named", [
        (["synth", "--segments-per-doc", "x"], "--segments-per-doc"),
        (["synth", "--split", "a,b,c"], "--split"),
        (["synth", "--split", "0.5,0.5,nan"], "fractions must be numbers >= 0"),
        (["train", "--corpus", "CORPUS", "--task", "multi-label", "--split", "nan,0.5,0.5"],
         "fractions must be numbers >= 0"),
        (["train", "--corpus", "CORPUS", "--task", "multi-label", "--ngram-orders", "1,x"],
         "--ngram-orders"),
        (["sufficiency", "--checkpoint", "m.ckpt", "--corpus", "CORPUS",
          "--lengths", "4,x"], "--lengths"),
    ])
    def test_malformed_number_list_exit_2(self, synth_dir, tmp_path, capsys, args, named):
        corpus = synth_dir / "corpus.jsonl"
        args = [corpus if a == "CORPUS" else a for a in args]
        assert run([*args, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err


COMMANDS = ("synth", "train", "predict", "explain", "eval", "sufficiency", "scale")
_FLAT = ("--truncate", "structure", "--pooling", "max", "--interaction-layers", "0",
         "--ngram-orders", "1,2", "--dim", "32", "--buckets", "4096")
_CKPT = ("--checkpoint", "w/model.ckpt")
# README's quickstart, then the benchmark's commands (perfbench/workloads.py)
COMMAND_LINES = [
    ["synth", "--docs", "500", "--labels", "2", "--segments-per-doc", "8",
     "--filler-vocab", "50", "--seed", "13", "--out", "data/"],
    ["train", "--corpus", "data/corpus.jsonl", "--task", "multi-label", "--truncate",
     "structure", "--pooling", "max", "--ngram-orders", "1", "--epochs", "10", "--lr", "0.05",
     "--seed", "5", "--out", "run/model.ckpt"],
    ["predict", "--checkpoint", "run/model.ckpt", "--corpus", "data/corpus.jsonl",
     "--out", "run/preds.jsonl"],
    ["explain", "--checkpoint", "run/model.ckpt", "--corpus", "data/corpus.jsonl",
     "--out", "run/explained.jsonl"],
    ["eval", "--checkpoint", "run/model.ckpt", "--corpus", "data/corpus.jsonl",
     "--keymap", "data/keymap.jsonl", "--split", "test", "--out", "run/report.json"],
    ["sufficiency", "--checkpoint", "run/model.ckpt", "--corpus", "data/corpus.jsonl",
     "--seed", "3", "--out", "run/sufficiency.json"],
    ["scale", "--segments", "8,16,32,64", "--trials", "30", "--out", "run/scale.csv"],
    *(["train", "--corpus", "d/corpus.jsonl", "--task", task, *flags, "--epochs", epochs,
       "--lr", lr, "--batch-size", "16", "--seed", "5", "--metrics", "w/metrics.csv",
       "--out", "w/model.ckpt"]
      for task, flags, epochs, lr in [
          ("multi-label", _FLAT, "10", "0.1"),
          ("multi-label", ("--truncate", "structure", "--pooling", "gated_max",
                           "--interaction-layers", "2", "--heads", "2", *_FLAT[6:]), "3", "0.01"),
          ("multi-class", ("--truncate", "auto", "--window-len", "16", "--overlap", "0",
                           *_FLAT[2:]), "3", "0.05")]),
    ["eval", *_CKPT, "--corpus", "d/corpus.jsonl", "--keymap", "d/keymap.jsonl",
     "--split", "test", "--out", "w/eval.out"],
    ["predict", *_CKPT, "--corpus", "d/predict.jsonl", "--out", "w/predict.out"],
    ["explain", *_CKPT, "--corpus", "d/predict.jsonl", "--out", "w/explain.out"],
]


def _parsed(parser, argv, capsys):
    """What `parser` makes of `argv`: its namespace or exit code, and what it printed."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


class TestCommandParser:
    """`build_parser(command)` adds flags to `command`'s parser only; anything
    it parses, it parses as the parser with every command's flags does."""

    @pytest.mark.parametrize("argv", [
        *COMMAND_LINES,
        *([command, "--help"] for command in COMMANDS),
        *([command, "--no-such-flag", "1"] for command in COMMANDS),
        *([command] for command in COMMANDS),  # synth needs no flag; the rest miss one
        ["--help"], [], ["nosuchcommand"],
    ], ids=lambda argv: " ".join(argv)[:60])
    def test_parses_as_the_full_parser(self, argv, capsys):
        full = _parsed(build_parser()[0], argv, capsys)
        assert _parsed(build_parser(argv[0] if argv else None)[0], argv, capsys) == full
        if "--no-such-flag" in argv or argv in ([], ["nosuchcommand"]) or (
                argv[1:] == [] and argv[0] not in ("synth", "--help")):
            assert full[0] == 2 and full[2].startswith("usage: swipe")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_of_every_command_and_of_swipe_is_unchanged(self, command, capsys):
        for argv in ([command, "--help"], ["--help"]):
            lean = _parsed(build_parser(command)[0], argv, capsys)
            assert lean == _parsed(build_parser()[0], argv, capsys) and lean[0] == 0

    def test_eval_reads_a_config_that_sets_other_commands_flags(self, synth_dir, tmp_path,
                                                                capsys):
        ckpt = _train(synth_dir, tmp_path)
        required = ["--checkpoint", ckpt, "--corpus", synth_dir / "corpus.jsonl"]
        given = {"keymap": synth_dir / "keymap.jsonl", "split": "dev"}
        flags = [a for key, value in given.items() for a in (f"--{key}", value)]
        assert run(["eval", *required, *flags, "--out", tmp_path / "flags.json"]) == 0
        cfg = tmp_path / "eval.cfg"
        # epochs and docs are train's and synth's flags, which eval has not
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in given.items())
                       + "epochs = 2\ndocs = 3\n")
        assert run(["eval", *required, "--config", cfg, "--out", tmp_path / "config.json"]) == 0
        assert (tmp_path / "flags.json").read_bytes() == (tmp_path / "config.json").read_bytes()
        cfg.write_text("epochs = 2\nbogus = 1\n")
        capsys.readouterr()
        assert run(["eval", *required, "--config", cfg, "--out", tmp_path / "bad.json"]) == 2
        assert capsys.readouterr().err == "error: unknown config key 'bogus'\n"


def _saved_model(tmp_path, task_kind="multi-class", **fill):
    """A small trained-looking hash-encoder checkpoint over the labels a and b,
    each tensor named in `fill` set to its value."""
    model = SwipeModel.create(ModelConfig(labels=("a", "b"), task_kind=task_kind,
                                          n_buckets=16, dim=4))
    model.train_config = TrainConfig()
    for name, value in fill.items():
        model.params[name][...] = value
    ckpt = tmp_path / "m.ckpt"
    model.save(ckpt)
    return ckpt


def _labelled_corpus(tmp_path, labels, splits=("test",) * 3):
    """One document per split, each carrying `labels`."""
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"d{i}", "text": f"word{i} and more", "labels": list(labels),
                    "split": split}) + "\n"
        for i, split in enumerate(splits)))
    return corpus


_EVAL_ARGS = {"eval": [], "sufficiency": ["--probe-epochs", 1]}


class TestEvalVocabulary:
    """`eval` and `sufficiency` read the file's labels against the model's
    vocabulary, not one built from the file."""

    @pytest.mark.parametrize("command", sorted(_EVAL_ARGS))
    @pytest.mark.parametrize("task_kind, labels", [
        ("multi-class", ["a"]),   # a one-label file for a two-label model
        ("multi-label", []),      # a file with no positive label at all
    ])
    def test_file_with_fewer_labels_than_the_model_exits_0(self, tmp_path, command,
                                                          task_kind, labels):
        ckpt = _saved_model(tmp_path, task_kind)
        corpus = _labelled_corpus(tmp_path, labels, splits=("train", "train", "test", "test"))
        out = tmp_path / "report.json"
        assert run([command, "--checkpoint", ckpt, "--corpus", corpus, "--out", out,
                    *_EVAL_ARGS[command]]) == 0
        assert out.exists()

    @pytest.mark.parametrize("command", sorted(_EVAL_ARGS))
    @pytest.mark.parametrize("unknown", [0, 1])  # a train or a test document
    def test_label_unknown_to_the_model_exits_2_in_any_split(self, tmp_path, capsys, command,
                                                             unknown):
        ckpt = _saved_model(tmp_path)
        corpus = _labelled_corpus(tmp_path, ["a"], splits=("train", "test", "test"))
        lines = corpus.read_text().splitlines()
        lines[unknown] = lines[unknown].replace('"labels": ["a"]', '"labels": ["z"]')
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        assert run([command, "--checkpoint", ckpt, "--corpus", corpus, "--out", out,
                    *_EVAL_ARGS[command]]) == 2
        assert capsys.readouterr().err == f"error: document 'd{unknown}': unknown label 'z'\n"
        assert not out.exists()


class TestNonFinite:
    """No output file holds JSON's non-standard `NaN` or `Infinity`."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_checkpoint_payload_exits_2(self, tmp_path, capsys, value):
        # the edit is hashed into the header: the checksum holds, the value is refused
        ckpt = _saved_model(tmp_path)
        line, payload = ckpt.read_bytes().split(b"\n", 1)
        payload = struct.pack("<f", value) + payload[4:]
        header = json.loads(line)
        header["sha256"] = hashlib.sha256(payload).hexdigest()
        ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        out = tmp_path / "p.jsonl"
        code = run(["predict", "--checkpoint", ckpt, "--corpus", _labelled_corpus(tmp_path, ["a"]),
                    "--out", out])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {ckpt}: tensor encoder.table holds {value} at flat index 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_a_flipped_checkpoint_payload_byte_exits_2(self, tmp_path, capsys, where):
        ckpt = _saved_model(tmp_path)
        data = bytearray(ckpt.read_bytes())
        data[data.index(b"\n") + 1 if where == "first" else -1] ^= 1
        ckpt.write_bytes(bytes(data))
        out = tmp_path / "p.jsonl"
        code = run(["predict", "--checkpoint", ckpt, "--corpus", _labelled_corpus(tmp_path, ["a"]),
                    "--out", out])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {ckpt}: payload does not match the header's sha256: the file is corrupt\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "explain", "eval", "sufficiency"])
    def test_overflowing_scores_exit_2_and_are_not_written(self, tmp_path, capsys, command):
        # every parameter is finite, but each score w.x + b is past the float32 range
        ckpt = _saved_model(tmp_path, **{"encoder.table": 1.0, "head.weight": 1e37,
                                         "head.bias": 3.4e38})
        out = tmp_path / "out.json"
        code = run([command, "--checkpoint", ckpt,
                    "--corpus", _labelled_corpus(tmp_path, ["a"]), "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: document 'd0' holds a NaN or an infinity")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists() or out.read_text() == ""


    @pytest.mark.parametrize("command", ["predict", "explain", "eval", "sufficiency"])
    def test_an_overflowing_label_table_row_exits_2_naming_the_document(self, tmp_path, capsys,
                                                                        command):
        # each row of encoder.table @ head.weight.T, 4 x 1e20 x 1e20, is past
        # the float32 range, and building it must not warn
        ckpt = _saved_model(tmp_path, **{"encoder.table": 1e20, "head.weight": 1e20})
        code = run([command, "--checkpoint", ckpt,
                    "--corpus", _labelled_corpus(tmp_path, ["a"]), "--out", tmp_path / "o"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: document 'd0' holds a NaN or an infinity")
        assert err.count("\n") == 1


def _text_corpus(path, n_docs, words=120):
    """`n_docs` plain-text documents of `words` random words each."""
    rng = random.Random(n_docs)
    path.write_text("".join(
        json.dumps({"id": f"d{i}", "text": " ".join(f"w{rng.randrange(500)}"
                                                     for _ in range(words))}) + "\n"
        for i in range(n_docs)))
    return path


def _traced_peak(args) -> int:
    """tracemalloc peak of one command, which must exit 0."""
    tracemalloc.start()
    try:
        assert run(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["predict", "explain"])
class TestStreaming:
    """`predict` and `explain` score documents as they read them."""

    def test_memory_does_not_grow_with_the_corpus(self, tmp_path, command, monkeypatch):
        # a small budget keeps a chunk's arrays from hiding the documents held
        monkeypatch.setattr("swipe.model.CHUNK_BYTES", PASS_BYTES + (64 << 10))
        ckpt = _saved_model(tmp_path)
        peaks = [_traced_peak([command, "--checkpoint", ckpt, "--out", tmp_path / "out",
                               "--corpus", _text_corpus(tmp_path / f"{n}.jsonl", n)])
                 for n in (60, 600)]
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_a_malformed_line_after_good_ones_exits_2_and_keeps_out(self, tmp_path, capsys,
                                                                    command):
        ckpt, corpus = _saved_model(tmp_path), _text_corpus(tmp_path / "c.jsonl", 50)
        with corpus.open("a") as fh:
            fh.write('{"id": "d50", "text": \n')
        out = tmp_path / "out.jsonl"
        out.write_bytes(b'{"old": "contents"}\n')
        before = sorted(tmp_path.iterdir())
        assert run([command, "--checkpoint", ckpt, "--corpus", corpus, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}:51: invalid JSON") and err.count("\n") == 1
        assert out.read_bytes() == b'{"old": "contents"}\n'
        assert sorted(tmp_path.iterdir()) == before  # no out.jsonl.tmp is left

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_malformed_line_into_a_pipe_follows_the_records_written(
            self, tmp_path, capsys, command, monkeypatch):
        # a pipe is written in place: its reader gets the chunks scored before
        # line 51 is reached, then the command fails
        monkeypatch.setattr("swipe.model.CHUNK_BYTES", PASS_BYTES + (64 << 10))
        ckpt, corpus = _saved_model(tmp_path), _text_corpus(tmp_path / "c.jsonl", 50)
        full = tmp_path / "full.jsonl"
        assert run([command, "--checkpoint", ckpt, "--corpus", corpus, "--out", full]) == 0
        with corpus.open("a") as fh:
            fh.write('{"id": "d50", "text": \n')
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
        reader.start()
        capsys.readouterr()
        assert run([command, "--checkpoint", ckpt, "--corpus", corpus, "--out", pipe]) == 2
        reader.join(timeout=60)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus}:51: invalid JSON") and err.count("\n") == 1
        records = got[0].splitlines(keepends=True)
        assert 0 < len(records) <= 50
        assert records == full.read_bytes().splitlines(keepends=True)[:len(records)]
        assert stat.S_ISFIFO(pipe.stat().st_mode)


def test_input_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch):
    def too_large(path):
        raise MemoryError

    monkeypatch.setattr("swipe.corpus.iter_documents", too_large)
    out = tmp_path / "p.jsonl"
    out.write_bytes(b'{"old": "contents"}\n')
    code = run(["predict", "--checkpoint", _saved_model(tmp_path),
                "--corpus", _labelled_corpus(tmp_path, ["a"]), "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert out.read_bytes() == b'{"old": "contents"}\n'


def _units_corpus(path, short_doc=None):
    """Five structure documents of three units; the last unit of document
    `short_doc` is the one token "solo"."""
    path.write_text("".join(
        json.dumps({"id": f"d{i}", "labels": ["a" if i % 2 else "b"],
                    "split": "train" if i < 4 else "test",
                    "units": ["alpha beta gamma", "delta epsilon",
                              "solo" if i == short_doc else "zeta eta theta"]}) + "\n"
        for i in range(5)))
    return path


_SHORT_SEGMENT_ERROR = ("error: document 'd2': segment 2 has 1 token(s), fewer than the "
                        "smallest n-gram order 2, so it has no n-grams\n")


class TestShortSegment:
    """A segment with fewer tokens than the smallest n-gram order has no n-gram
    to embed; it ends the command in one `error:` line naming it."""

    def _train(self, corpus, ckpt):
        return run(["train", "--corpus", corpus, "--task", "multi-class",
                    "--truncate", "structure", "--ngram-orders", 2, "--epochs", 1,
                    "--dim", 4, "--buckets", 16, "--out", ckpt])

    def test_train_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        assert self._train(_units_corpus(tmp_path / "c.jsonl", short_doc=2), ckpt) == 2
        assert capsys.readouterr().err == _SHORT_SEGMENT_ERROR
        assert not ckpt.exists()

    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_predict_exits_2(self, tmp_path, capsys, command):
        ckpt = tmp_path / "m.ckpt"
        assert self._train(_units_corpus(tmp_path / "ok.jsonl"), ckpt) == 0
        capsys.readouterr()
        out = tmp_path / "out.jsonl"
        assert run([command, "--checkpoint", ckpt,
                    "--corpus", _units_corpus(tmp_path / "c.jsonl", short_doc=2),
                    "--out", out]) == 2
        assert capsys.readouterr().err == _SHORT_SEGMENT_ERROR
        assert not out.exists() or out.read_text() == ""

    @pytest.mark.parametrize("command", ["predict", "explain"])
    def test_failed_run_keeps_the_old_out(self, tmp_path, capsys, command):
        # the first document's 12,000 tokens put it over CHUNK_BYTES on its own,
        # so its record is made before the second document's one-token unit fails
        ckpt = tmp_path / "m.ckpt"
        assert run(["train", "--corpus", _units_corpus(tmp_path / "ok.jsonl"),
                    "--task", "multi-class", "--truncate", "structure", "--ngram-orders", 2,
                    "--epochs", 1, "--dim", 32, "--buckets", 16, "--out", ckpt]) == 0
        corpus = tmp_path / "c.jsonl"
        long_unit = " ".join(f"w{k % 97}" for k in range(12_000))
        corpus.write_text(json.dumps({"id": "long", "units": [long_unit]}) + "\n"
                          + json.dumps({"id": "d2", "units": ["two tokens", "solo"]}) + "\n")
        out = tmp_path / "out.jsonl"
        out.write_bytes(b'{"old": "contents"}\n')
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert run([command, "--checkpoint", ckpt, "--corpus", corpus, "--out", out]) == 2
        assert capsys.readouterr().err == ("error: document 'd2': segment 1 has 1 token(s), "
                                           "fewer than the smallest n-gram order 2, so it has "
                                           "no n-grams\n")
        assert out.read_bytes() == b'{"old": "contents"}\n'
        assert sorted(tmp_path.iterdir()) == before  # no temporary file is left
