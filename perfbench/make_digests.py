"""Regenerate perfbench/expected.json, the committed output digests.

    PYTHONPATH=src python3 perfbench/make_digests.py

Run it only when a change to nilary's output is intended; the benchmark
counts every ring whose output no longer matches as failed. The digests
cover the bytes the CLI prints: per ring of ``classify-ladder``
(``classify <spec> --json``) and per theorem case of ``verify-builtin``.
Neither depends on ring order, so one digest serves every seed.
"""

import json

from nilary import corpus

from worker import EXPECTED, case_digests, ladder_digests, pass_ladder, pass_verify
from workloads import LADDER


def main() -> None:
    ladder = corpus.build_rings(corpus.CorpusConfig(specs=LADDER))
    builtin = corpus.build_rings(corpus.build_builtin_corpus())
    expected = {
        "classify-ladder": ladder_digests(pass_ladder(ladder)[0]),
        "verify-builtin": case_digests(pass_verify(builtin)[1]),
    }
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
