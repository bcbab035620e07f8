"""Run the CLI output matrix and print the SHA-256 of every file it writes.

The matrix (:func:`commands`) runs, each command into its own directory:

- ``gen-world``;
- ``gen-corpus`` iid and annotated (the corpus the model commands read),
  single_edit, and uniform ``--no-annotate``;
- ``train`` with the config's window and with ``--window=-1,1``;
- ``score`` with and without ``--oracle``;
- ``filter`` at the config's threshold and at 0.01;
- ``eval``;
- ``pipeline --mode`` cross, self, heuristic, mixing and none;
- ``sweep-threshold`` and ``sweep-volume``.

That is 59 files, ``manifest.json`` files included.  ``TestGoldenOutputs``
pins the same matrix on a tiny config; this script runs it on the default
experiment, once per seed, in a fresh directory.  Each line is
``sha256  seed<s>/<command dir>/<file>``, sorted by path, so two source
trees are byte-identical on the matrix when ``diff`` of their runs is empty::

    PYTHONPATH=src python tests/output_matrix.py --seeds 0 3 > after.txt
    PYTHONPATH=../parent/src python tests/output_matrix.py --seeds 0 3 > before.txt
    diff before.txt after.txt

With ``--posteriors`` the script prints, instead of the matrix, one line
``sha256  seed<s>/posteriors`` per seed: the SHA-256 over the ``repr`` of
every :func:`~denoiselab.oracle.posterior` report (every field, with its
type) of the default experiment's annotated single-edit ``d_o`` corpus, so
the same ``diff`` shows whether the exact oracle moved::

    PYTHONPATH=src python tests/output_matrix.py --posteriors --seeds 0 3 5

Each seed's digest is computed twice on one world: first while the world
keeps no order-1 slot rows yet (``WorldModel._slot_rows``), then with the
rows the first pass kept; the script exits 1 when the two differ, so a kept
row that reads as another's shows in the same check.

With ``--order K`` both run the default experiment on a world of order K,
with ``context_affinity`` 0 (affine candidates need an order-1 world); the
commands then read that config from a ``config.json`` outside the listing.

The lab is imported from ``PYTHONPATH``, so the same script checks any
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from denoiselab import cli, oracle
from denoiselab.augment import generate_corpus
from denoiselab.config import experiment_config_from_dict
from denoiselab.pipeline import ExperimentConfig, build_experiment_world

from constructions import records_of


def commands(out: Path) -> list[list[str]]:
    """The matrix's CLI argument lists, without ``--config`` and ``--seed``."""
    corpus = str(out / "corpus")
    uses = ["--model", str(out / "model" / "model.json"), "--corpus-dir", corpus]
    calls = [
        ("gen-world", "gen-world"),
        ("corpus", "gen-corpus", "--mode", "iid", "--annotate"),
        ("corpus-single", "gen-corpus", "--mode", "single_edit"),
        ("corpus-uniform", "gen-corpus", "--channel", "uniform", "--no-annotate"),
        ("model", "train", "--corpus-dir", corpus),
        ("model-window", "train", "--corpus-dir", corpus, "--window=-1,1"),
        ("score", "score", *uses, "--oracle"),
        ("score-no-oracle", "score", *uses),
        ("filter", "filter", *uses),
        ("filter-0.01", "filter", *uses, "--threshold", "0.01"),
        ("eval", "eval", *uses),
        *((f"pipeline-{mode}", "pipeline", "--mode", mode)
          for mode in ("cross", "self", "heuristic", "mixing", "none")),
        ("sweep-threshold", "sweep-threshold"),
        ("sweep-volume", "sweep-volume"),
    ]
    return [[command, "--out-dir", str(out / name), *args]
            for name, command, *args in calls]


def posteriors_digest(seed: int, config: ExperimentConfig | None = None) -> str:
    """SHA-256 over the reprs of the posterior reports of the single-edit ``d_o``'s edits
    (default experiment unless ``config`` is given)."""
    return posteriors_digests(seed, config, passes=1)[0]


def posteriors_digests(seed: int, config: ExperimentConfig | None = None,
                       passes: int = 2) -> list[str]:
    """:func:`posteriors_digest` of each of ``passes`` passes over one world and corpus."""
    config = config or ExperimentConfig()
    world, _, longtail = build_experiment_world(config, seed)
    corpus = generate_corpus(world, longtail, config.do_sentences, config.length_range,
                             config.rate, mode="single_edit", seed=seed, annotate=True,
                             stream="d-o")
    records = [rec for rec in records_of(corpus) if rec.edits]
    digests = []
    for _ in range(passes):
        h = hashlib.sha256()
        for rec in records:
            h.update(repr(oracle.posterior(world, longtail, rec, 0, config.rate)).encode())
        digests.append(h.hexdigest())
    return digests


def order_config(order: int) -> dict:
    """The config document of the default experiment at world order ``order``."""
    return {"world": {"order": order}, "confusion": {"context_affinity": 0.0}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    parser.add_argument("--posteriors", action="store_true",
                        help="print the posterior-report digest of each seed instead")
    parser.add_argument("--order", type=int,
                        help="world order of the default experiment (context affinity 0)")
    args = parser.parse_args(argv)
    doc = None if args.order is None else order_config(args.order)
    if args.posteriors:
        config = None if doc is None else experiment_config_from_dict(doc)
        status = 0
        for seed in args.seeds:
            cold, warm = posteriors_digests(seed, config)
            print(f"{cold}  seed{seed}/posteriors")
            if warm != cold:
                print(f"seed{seed}: posterior digest {warm} with kept slot rows differs from "
                      f"{cold} without them", file=sys.stderr)
                status = 1
        return status
    with tempfile.TemporaryDirectory() as tmp:
        root, uses = Path(tmp) / "out", []
        if doc is not None:
            (Path(tmp) / "config.json").write_text(json.dumps(doc))
            uses = ["--config", str(Path(tmp) / "config.json")]
        with contextlib.redirect_stdout(sys.stderr):  # the commands' own messages
            for seed in args.seeds:
                for call in commands(root / f"seed{seed}"):
                    cli.main([*call, *uses, "--seed", str(seed)], standalone_mode=False)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
