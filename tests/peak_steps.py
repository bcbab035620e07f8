"""Print the peak RSS after each step of the benchmark's ``cli_roundtrip`` chain.

Runs ``gen-corpus`` -> ``train`` -> ``score`` -> ``filter`` -> ``eval`` in-process on the
default config, in a temporary directory, and prints ``ru_maxrss`` in MB (as perfbench
reads it) after the imports and after each command, so a change can show which step sets
the memory peak::

    PYTHONPATH=src python tests/peak_steps.py --seed 0
"""

from __future__ import annotations

import argparse
import contextlib
import resource
import sys
import tempfile

from denoiselab import cli


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    seed = str(parser.parse_args(argv).seed)
    print(f"{'set-up':<11} {peak_mb():6.1f} MB")
    with tempfile.TemporaryDirectory() as tmp:
        corpus, model = f"{tmp}/corpus", f"{tmp}/model"
        uses = ["--model", f"{model}/model.json", "--corpus-dir", corpus]
        for args in (["gen-corpus", "--out-dir", corpus, "--channel", "long_tailed",
                      "--mode", "iid", "--annotate"],
                     ["train", "--corpus-dir", corpus, "--out-dir", model],
                     ["score", *uses, "--out-dir", f"{tmp}/scores"],
                     ["filter", *uses, "--out-dir", f"{tmp}/filtered"],
                     ["eval", *uses, "--out-dir", f"{tmp}/eval"]):
            with contextlib.redirect_stdout(sys.stderr):  # the command's own message
                cli.main([*args, "--seed", seed], standalone_mode=False)
            print(f"{args[0]:<11} {peak_mb():6.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
