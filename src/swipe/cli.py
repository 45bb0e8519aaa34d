"""Command-line entry point.

Subcommands: synth, train, predict, explain, eval, sufficiency, scale.
Every flag can also come from a key=value config file (--config); explicit
flags win over the file, the file wins over built-in defaults. All
randomness flows from --seed, fanned out internally into named sub-seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

from swipe import corpus as corpus_mod
from swipe import evaluate as eval_mod
from swipe.config import (
    ENCODER_HASH,
    ENCODER_PRECOMPUTED,
    STRATEGIES,
    ModelConfig,
    TrainConfig,
    TruncationConfig,
)
from swipe.errors import ConfigError, SwipeError, ValidationError
from swipe.head import Pooling
from swipe.model import SwipeModel, load_precomputed
from swipe.train import train, write_metrics_csv
from swipe.truncate import truncate  # noqa: F401  (perfbench/layers.py traces swipe.cli.truncate)


def _numbers(text: str, kind, flag: str, skip_blank: bool = False) -> list:
    parts = [p for p in text.split(",") if p.strip() or not skip_blank]
    try:
        return [kind(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{flag}: expected comma-separated numbers, got {text!r}") from None


def _parse_pair(text: str, flag: str) -> tuple[int, int]:
    parts = _numbers(text, int, flag)
    if len(parts) not in (1, 2):
        raise ConfigError(f"{flag}: expected 'n' or 'lo,hi', got {text!r}")
    return parts[0], parts[-1]


def _parse_ints(text: str, flag: str) -> list[int]:
    return _numbers(text, int, flag, skip_blank=True)


def _parse_fractions(text: str, flag: str) -> tuple[float, float, float]:
    parts = _numbers(text, float, flag)
    if len(parts) != 3:
        raise ConfigError(f"{flag}: expected three fractions, got {text!r}")
    return parts[0], parts[1], parts[2]


def _json(value, what: str, **kwargs) -> str:
    """`value` as strict JSON; a NaN or infinity in it raises ValidationError,
    so no output file holds the non-standard `NaN` or `Infinity`."""
    try:
        return json.dumps(value, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise ValidationError(f"{what} holds a NaN or an infinity, which JSON cannot hold") \
            from exc


@contextlib.contextmanager
def _replacing(path):
    """Yield `<path>.tmp` to write the whole file to; it replaces `path` (a link's
    target) on success and is removed on failure. A `path` that exists but is no
    regular file (/dev/stdout, a pipe) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        yield path
        return
    path = os.path.realpath(path) if os.path.islink(path) else path
    tmp = Path(f"{path}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_config_file(path) -> dict[str, str]:
    """key=value lines; '#' starts a comment; keys match flag names. The key
    `config` is rejected: a config file cannot name another config file."""
    entries: dict[str, str] = {}
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    for lineno, raw in enumerate(path.read_bytes().splitlines(), 1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError:
            raise ConfigError(f"{path}:{lineno}: not valid UTF-8") from None
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key == "config":
            raise ConfigError(f"{path}:{lineno}: a config file cannot set 'config'")
        entries[key] = value.strip()
    return entries


def _config_value(action: argparse.Action, raw: str):
    """Parse and check a config-file value as argparse would the flag's."""
    try:
        value = action.type(raw) if action.type else raw
    except ValueError as exc:
        raise ConfigError(f"config value {action.dest}={raw!r}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise ConfigError(
            f"config value {action.dest}={raw!r}: expected one of {list(action.choices)}"
        )
    return value


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pooling", type=str, default="max",
                        choices=[p.value for p in Pooling])
    parser.add_argument("--interaction-layers", type=int, default=0)
    parser.add_argument("--heads", type=int, default=2)
    parser.add_argument("--ff-dim", type=int, default=None)
    parser.add_argument("--max-positions", type=int, default=None,
                        help="positional embeddings for up to N segments (default: none)")
    parser.add_argument("--buckets", type=int, default=4096)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--ngram-orders", type=str, default="1,2")
    parser.add_argument("--truncate", type=str, default="auto", choices=STRATEGIES)
    parser.add_argument("--window-len", type=int, default=64)
    parser.add_argument("--overlap", type=int, default=0)
    parser.add_argument("--max-seg-len", type=int, default=64)
    parser.add_argument("--vectors", type=str, default=None,
                        help="precomputed segment-vector sidecar (freezes the encoder)")


def _model_config(args, labels, task_kind, dim_override=None) -> ModelConfig:
    return ModelConfig(
        labels=tuple(labels),
        task_kind=task_kind,
        pooling=Pooling(args.pooling),
        truncation=TruncationConfig(
            strategy=args.truncate,
            window_len=args.window_len,
            overlap=args.overlap,
            max_seg_len=args.max_seg_len,
        ),
        encoder_mode=ENCODER_PRECOMPUTED if args.vectors else ENCODER_HASH,
        n_buckets=args.buckets,
        dim=dim_override if dim_override is not None else args.dim,
        ngram_orders=tuple(_parse_ints(args.ngram_orders, "--ngram-orders")),
        interaction_layers=args.interaction_layers,
        n_heads=args.heads,
        ff_dim=args.ff_dim,
        max_positions=args.max_positions,
        init_seed=args.seed,
    )


def cmd_synth(args) -> int:
    spec = corpus_mod.SyntheticSpec(
        num_docs=args.docs,
        num_labels=args.labels,
        segments_per_doc=_parse_pair(args.segments_per_doc, "--segments-per-doc"),
        key_vocab_per_label=args.key_vocab,
        filler_vocab=args.filler_vocab,
        tokens_per_segment=_parse_pair(args.tokens_per_segment, "--tokens-per-segment"),
        task_kind=args.task,
        seed=args.seed,
    )
    generated, key_map = corpus_mod.generate_synthetic(spec)
    generated = corpus_mod.split_corpus(
        generated, _parse_fractions(args.split, "--split"), seed=args.seed
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with _replacing(out / "corpus.jsonl") as tmp:
        corpus_mod.write_jsonl(generated, tmp)
    with _replacing(out / "keymap.jsonl") as tmp:
        corpus_mod.write_key_map(key_map, tmp)
    print(f"wrote {out / 'corpus.jsonl'} ({len(generated)} docs) and {out / 'keymap.jsonl'}")
    return 0


def _load_model_inputs(args):
    model = SwipeModel.load(args.checkpoint)
    if model.config.encoder_mode == ENCODER_PRECOMPUTED:
        if not args.vectors:
            raise ConfigError("checkpoint expects precomputed vectors; pass --vectors")
        model.attach_vectors(load_precomputed(args.vectors))
    elif args.vectors:
        raise ConfigError("checkpoint uses the hash encoder, which takes no --vectors")
    return model


def cmd_train(args) -> int:
    train_config = TrainConfig(epochs=args.epochs, base_lr=args.lr,
                               batch_size=args.batch_size, seed=args.seed)
    loaded = corpus_mod.load_jsonl(args.corpus, args.task)
    if args.split:
        loaded = corpus_mod.split_corpus(
            loaded, _parse_fractions(args.split, "--split"), seed=args.seed
        )
    vectors = load_precomputed(args.vectors) if args.vectors else None
    dim = next(iter(vectors.values())).h if vectors else None
    model = SwipeModel.create(_model_config(args, loaded.vocab.names, args.task, dim))
    if vectors:
        model.attach_vectors(vectors)
    result = train(loaded, model, train_config)
    metrics_path = args.metrics or (str(args.out) + ".metrics.csv")
    with _replacing(metrics_path) as tmp:
        write_metrics_csv(result.metrics, tmp)
    with _replacing(args.out) as tmp:
        model.save(tmp)
    final_dev = result.metrics[-1]["dev_metric"]
    print(f"checkpoint={args.out} metrics={metrics_path} "
          f"final_dev_metric={final_dev:.4f} best_epoch={result.best_epoch}")
    return 0


def _write_records(args, what: str, record) -> int:
    """Stream --corpus through the model to --out, one JSON line per document
    (`record(model, segments, pred)`), holding no document already written."""
    model = _load_model_inputs(args)
    count = 0
    with _replacing(args.out) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        for _, segments, pred in model.predict_many(corpus_mod.iter_documents(args.corpus)):
            fh.write(_json(record(model, segments, pred), f"document {pred.doc_id!r}") + "\n")
            count += 1
    print(f"wrote {what} for {count} documents to {args.out}")
    return 0


def cmd_predict(args) -> int:
    return _write_records(args, "predictions",
                          lambda model, _, pred: pred.to_record(model.vocab.names))


def cmd_explain(args) -> int:
    return _write_records(args, "explanations", lambda model, segments, pred:
                          model.encoder.annotate(pred.to_record(model.vocab.names), segments))


def cmd_eval(args) -> int:
    model = _load_model_inputs(args)
    docs = corpus_mod.Corpus(corpus_mod.load_documents(args.corpus),
                             model.vocab).split_docs(args.split)
    if not docs:
        raise ValidationError(f"split {args.split!r} is empty")
    key_map = corpus_mod.load_key_map(args.keymap, model.vocab.names) if args.keymap else None
    preds = [pred for _, _, pred in model.predict_many(docs)]
    report = {"split": args.split,
              **eval_mod.classification_eval(preds, model.vocab.gold(docs), model.vocab)}
    if key_map is not None:
        report.update(eval_mod.segment_labeling_eval(preds, key_map, model.vocab.names))
    with _replacing(args.out) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_json(report, "eval report", indent=2, sort_keys=True) + "\n")
    summary = " ".join(
        f"{k}={report[k]:.4f}" for k in
        ("accuracy", "micro_f1", "macro_f1", "segment_micro_f1", "key_segment_recovery")
        if k in report
    )
    print(f"{summary} -> {args.out}")
    return 0


def cmd_sufficiency(args) -> int:
    lengths = _parse_ints(args.lengths, "--lengths") if args.lengths else None
    model = _load_model_inputs(args)
    loaded = corpus_mod.Corpus(corpus_mod.load_documents(args.corpus), model.vocab)
    report = eval_mod.sufficiency_test(
        loaded, model, segment_lens=lengths,
        probe=eval_mod.ProbeConfig(epochs=args.probe_epochs, lr=args.probe_lr),
        seed=args.seed,
    )
    with _replacing(args.out) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        fh.write(_json({"rows": report.rows}, "sufficiency report", indent=2, sort_keys=True)
                 + "\n")
    for row in report.rows:
        length = row["segment_len"] if row["segment_len"] is not None else "model"
        print(f"segment_len={length} swipe={row['swipe']:.4f} "
              f"random={row['random']:.4f} full_text={row['full_text']:.4f}")
    return 0


def cmd_scale(args) -> int:
    rows = eval_mod.scaling_probe(
        segment_counts=_parse_ints(args.segments, "--segments"),
        trials=args.trials,
        tokens_per_segment=args.tokens_per_segment,
        dim=args.dim,
        pooling=Pooling(args.pooling),
        seed=args.seed,
    )
    with _replacing(args.out) as tmp:
        eval_mod.write_scaling_csv(rows, tmp)
    for row in rows:
        print(f"n_segments={row['n_segments']} median_ms={row['median_ms']:.3f}")
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="swipe",
        description="Segment-aware long-text classification with "
                    "self-explaining segment labeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, nargs="?", const="",
                       metavar="FILE", help="key=value file providing flag defaults")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func)
        subparsers[name] = p
        return p

    def checkpoint_command(name, func, help_text):
        p = command(name, func, help_text)
        p.add_argument("--checkpoint", type=str, required=True)
        p.add_argument("--corpus", type=str, required=True)
        p.add_argument("--vectors", type=str, default=None)
        return p

    p = command("synth", cmd_synth, "generate a planted-key synthetic corpus")
    p.add_argument("--docs", type=int, default=500)
    p.add_argument("--labels", type=int, default=2)
    p.add_argument("--segments-per-doc", type=str, default="8")
    p.add_argument("--key-vocab", type=int, default=20)
    p.add_argument("--filler-vocab", type=int, default=200)
    p.add_argument("--tokens-per-segment", type=str, default="6,12")
    p.add_argument("--task", type=str, default=corpus_mod.TASK_MULTILABEL,
                   choices=list(corpus_mod.TASK_KINDS))
    p.add_argument("--split", type=str, default="0.8,0.1,0.1")
    p.add_argument("--out", type=str, default=".")

    p = command("train", cmd_train, "train a model, save the best-dev checkpoint")
    p.add_argument("--corpus", type=str, required=True)
    p.add_argument("--task", type=str, default=corpus_mod.TASK_MULTICLASS,
                   choices=list(corpus_mod.TASK_KINDS))
    p.add_argument("--split", type=str, default=None,
                   help="fractions to split untagged documents, e.g. 0.8,0.1,0.1")
    _add_model_flags(p)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=5e-5)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--metrics", type=str, default=None)
    p.add_argument("--out", type=str, required=True, help="checkpoint path")

    for name, func in (("predict", cmd_predict), ("explain", cmd_explain)):
        p = checkpoint_command(name, func, f"{name} documents with a trained checkpoint")
        p.add_argument("--out", type=str, required=True)

    p = checkpoint_command("eval", cmd_eval, "classification and segment-labeling metrics")
    p.add_argument("--keymap", type=str, default=None)
    p.add_argument("--split", type=str, default="test")
    p.add_argument("--out", type=str, required=True)

    p = checkpoint_command("sufficiency", cmd_sufficiency, "explanation sufficiency protocol")
    p.add_argument("--lengths", type=str, default=None,
                   help="comma-separated auto window lengths, e.g. 64,128,256")
    p.add_argument("--probe-epochs", type=int, default=12)
    p.add_argument("--probe-lr", type=float, default=0.05)
    p.add_argument("--out", type=str, required=True)

    p = command("scale", cmd_scale, "forward+backward timing vs segment count")
    p.add_argument("--segments", type=str, default="8,16,32,64")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--tokens-per-segment", type=int, default=8)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--pooling", type=str, default="max",
                   choices=[pool.value for pool in Pooling])
    p.add_argument("--out", type=str, required=True)

    return parser, subparsers


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        # parse once to find --config, again with the file's values as defaults
        args = parser.parse_args(argv)
        if args.config is not None:
            if not args.config:
                raise ConfigError("--config needs a file path")
            config = load_config_file(args.config)
            known = {action.dest for sub in subparsers.values() for action in sub._actions}
            for key in config:
                if key not in known:
                    raise ConfigError(f"unknown config key {key!r}")
            for sub in subparsers.values():
                for action in sub._actions:
                    if action.dest in config:
                        action.default = _config_value(action, config[action.dest])
            args = parser.parse_args(argv)
        return args.func(args)
    except (SwipeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: lookup failed: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'the input does not fit'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
