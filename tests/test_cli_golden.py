"""Golden CLI outputs: one table of invocations and the hash of what each does.

Each row runs one or more commands in-process through ``cli.main``, in a
fresh working directory, and hashes every command's exit code, stdout and
stderr, then every file the row wrote.  Output names are relative, so the
manifests' ``argv`` and ``outputs`` are the same on every run.

A change that means to alter an output edits the rows it alters and names
them in ``CHANGES.md``.  To print the digests of the current code, run
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gwprofile.cli import main

BUILTINS = ["geom-pm1", "geom-pm01", "incomplete-binary", "complete-binary"]
SUITES = [
    "counting-lemma", "joint-law", "chain-law", "profile-count",
    "decomposition-roundtrip", "schaeffer-roundtrip", "kemperman",
]
TREE = "0(+(-()+())-(+()))"

# Each row: commands separated by " && ", each split on spaces.
ROWS = (
    [f"sample --model builtin:{m} --count 3 --seed 11" for m in BUILTINS]
    + [f"sample --model builtin:{m} --kind excursion --sign - --count 3 --seed 11"
       for m in BUILTINS]
    + [f"sample --model builtin:{m} --kind conditioned --edges 6 --count 3 --seed 11"
       for m in BUILTINS]
    + [f"sample --model builtin:{m} --kind quadrangulation --count 2 --seed 11 --out quad"
       for m in BUILTINS]
    + [
        f"decompose --tree {TREE} --level 1",
        f"decompose --tree {TREE} --level -1 --out dec.jsonl",
        "sample --model builtin:geom-pm1 --count 4 --seed 5 --out trees.txt"
        " && decompose --in trees.txt --level 2 --out dec.jsonl",
    ]
    + [f"genfun --model builtin:{m} --what {what}" for m in BUILTINS for what in ("nu", "f")]
    + [
        "kernel --from 1,0 --smax 10",
        "kernel --from 2,3 --smax 6 --out k.csv",
        "kernel --from 1,0,0 --edges 8 --smax 5",
        "kernel --from 2,1,1 --edges 10 --smax 5 --out k.csv",
        "kernel --from 0,3",
        "kernel --from 2,1,7 --edges 9 --smax 5",
    ]
    + [f"verify --suite {suite}" for suite in SUITES]
    + [
        f"maps --from-tree {TREE} --orientation 1",
        f"maps --from-tree {TREE} --orientation 0 --out map.csv"
        " && maps --in map.csv --to-tree --profile --check",
        "stats --model builtin:incomplete-binary --count 200 --seed 3",
        "stats --model builtin:geom-pm01 --count 100 --seed 3 --max-level 4 --out census.csv",
    ]
)

# The kernel --edges and chain-law rows read genfun.joint_table.
GOLDEN = {
    'sample --model builtin:geom-pm1 --count 3 --seed 11': 'a868dca4ffedfa9cbccc43ae66046925a4a67f8aa0a08194b19eb46a1d1df2b2',
    'sample --model builtin:geom-pm01 --count 3 --seed 11': 'bbed45dac19915729b30c2384403c95acc339b9d82a2418b6185c48c44254960',
    'sample --model builtin:incomplete-binary --count 3 --seed 11': '684b1f7bf1a1396ed8cb43e8e499d5a4862cfb50cfa79d6578dfc41a85560d88',
    'sample --model builtin:complete-binary --count 3 --seed 11': '884fbf028cdd49218d73f150e6480e3cc26915bc323191df82bdd9a7288f1eb4',
    'sample --model builtin:geom-pm1 --kind excursion --sign - --count 3 --seed 11': '51e423be45460573affd21da95924839b291fc2b2e9039606aa68bff0a05a44d',
    'sample --model builtin:geom-pm01 --kind excursion --sign - --count 3 --seed 11': '3c064f7199062e623804042984af36f932e4ea00d5694788ea2aee710e3e6ff6',
    'sample --model builtin:incomplete-binary --kind excursion --sign - --count 3 --seed 11': '5da032e7b1a14d83c43181fd13120fd03172685f400d23fe72ed84dce21ab67f',
    'sample --model builtin:complete-binary --kind excursion --sign - --count 3 --seed 11': '3d35478d9d4cb11a3509cc768a86a6a57a3992c6c22240d7997ccc38431dcabd',
    'sample --model builtin:geom-pm1 --kind conditioned --edges 6 --count 3 --seed 11': '0e2338673605c5c68e3300e562d8cce8f29dd02671d1f4fd4eb0890e8347a0c0',
    'sample --model builtin:geom-pm01 --kind conditioned --edges 6 --count 3 --seed 11': '1bb0969e2c6a3c8c33cde66697b2a3b63f2de88000958535ccad667dfae62794',
    'sample --model builtin:incomplete-binary --kind conditioned --edges 6 --count 3 --seed 11': 'e9c321c286d06f4bfae055c338ee0b63583e74c77cb0d38eebfeed42293f6c92',
    'sample --model builtin:complete-binary --kind conditioned --edges 6 --count 3 --seed 11': 'f9774b8e51d584727c18d6cacedf1e5dfa92b2cc611ffc9e8b8a23b1dfa4b0e2',
    'sample --model builtin:geom-pm1 --kind quadrangulation --count 2 --seed 11 --out quad': 'd61d1b7a740a377c2546eb029b4342b853daaf259e7a87696394ed68fddaef27',
    'sample --model builtin:geom-pm01 --kind quadrangulation --count 2 --seed 11 --out quad': '6f41b672d91c75bb703416df68c32ef99b8d2bf50247052e50f669a50d4254c4',
    'sample --model builtin:incomplete-binary --kind quadrangulation --count 2 --seed 11 --out quad': 'd61d1b7a740a377c2546eb029b4342b853daaf259e7a87696394ed68fddaef27',
    'sample --model builtin:complete-binary --kind quadrangulation --count 2 --seed 11 --out quad': 'd61d1b7a740a377c2546eb029b4342b853daaf259e7a87696394ed68fddaef27',
    'decompose --tree 0(+(-()+())-(+())) --level 1': '51e0388570a5da2a67640409374d397bfb4ecbe0a9540290f82e8ba7e167a341',
    'decompose --tree 0(+(-()+())-(+())) --level -1 --out dec.jsonl': '93f6be390f59f09e384b611e1d817d1e1d673c8bbcb31c10c54cc95d2092b859',
    'sample --model builtin:geom-pm1 --count 4 --seed 5 --out trees.txt && decompose --in trees.txt --level 2 --out dec.jsonl': '3ca91e47cbcaf4155cf8288b2ffadf6d2d7f796666f2169edfe656b06280b552',
    'genfun --model builtin:geom-pm1 --what nu': 'b4ce747346d116ad338e7ce2edd6ef41720e62460231a97bad5ee6635d3e90fd',
    'genfun --model builtin:geom-pm1 --what f': 'ed40e152de582cb545e90f5772a8ed9a5d70c13fbf3c1419b142724ad5a435fe',
    'genfun --model builtin:geom-pm01 --what nu': '94854b30aac67714ffedc04ff61a17f69aecdf76a95ba37e6ea51dffc839272e',
    'genfun --model builtin:geom-pm01 --what f': '59a794352c68e030928fda838f491945cb080e7881d75cba23a8c7f0cf9e85c8',
    'genfun --model builtin:incomplete-binary --what nu': '69b1c7ee476ea40eba9e72b3d4fdebad895b1c52061451c6faa8ae7a5807448f',
    'genfun --model builtin:incomplete-binary --what f': '7e680edaf17e47656c1e155d79d56160e46cc140fd4b5dd539c548da9ec637f0',
    'genfun --model builtin:complete-binary --what nu': '4cc0fe5ba19420427b90b7a6fb6b216082cacbeb0e93fab083b4bb3b8b917c28',
    'genfun --model builtin:complete-binary --what f': '85470a16ef867933844c1dc29e5244b168077444b18c97cc31013baab731bed9',
    'kernel --from 1,0 --smax 10': 'e47372116d0b1a52331b9b2d0dbc1cadb0f1ceefbea7f773195d5a6629e11a5a',
    'kernel --from 2,3 --smax 6 --out k.csv': '2a39c1a0b08fb207783c1835985f28d4f4c733a729e45357de5fbaae11a3f290',
    'kernel --from 1,0,0 --edges 8 --smax 5': '0432ca760d930a993e70c1aa4dbb790aee9194d3595afa1b6f105d7d3805df27',
    'kernel --from 2,1,1 --edges 10 --smax 5 --out k.csv': '39f64ada6c328c2413031b145c22a41bc2e0bc22c16b95d6330cb8c1b14a7aec',
    'kernel --from 0,3': '7a0838a599b7d0c27f908b6ccc5f8cbfcc0120ce21a800f8d9c78bb6809a54c3',
    'kernel --from 2,1,7 --edges 9 --smax 5': '14ac3cce66dab05eb911aa9b9bd8f8efa5e24b9880ce70f1b60c590d66638e74',
    'verify --suite counting-lemma': '14c6fe1c932d04dec85807332adcec84a9b4b8ed084b9cf4e1be721f7c8c50ca',
    'verify --suite joint-law': '19ae7b1ffa55f742188e62691b50279b018732a551f924b106e375301d861122',
    'verify --suite chain-law': 'bbcd3731654f1c79f07bb06ccd4b82181467834f97f8737f8cf97fe79eb94ced',
    'verify --suite profile-count': '28169de94c353b7515cb45eba2cc24b96f42886797a88db74662f2bc5ea468ba',
    'verify --suite decomposition-roundtrip': '3ff56bfed0ed75dd5cb4510c52dcf8352d6625c74198bba832d1685fbdfc3f1a',
    'verify --suite schaeffer-roundtrip': 'edbdb50708b32c15b6df7ebd7c1db20fabafc7da806a9b004b8d9d51e06263a9',
    'verify --suite kemperman': '570e5626386ffe024c4f3b89935805f5208554fcb62bd6fa0b5f168fdbf50bae',
    'maps --from-tree 0(+(-()+())-(+())) --orientation 1': 'c300ddea07dd20c5b88794626d436f59d6f18356729498035077c0bfa64399af',
    'maps --from-tree 0(+(-()+())-(+())) --orientation 0 --out map.csv && maps --in map.csv --to-tree --profile --check': '3034cd286915b5638b6c15b5ce9c912071de76d56974dace0ad3bb617520a0b4',
    'stats --model builtin:incomplete-binary --count 200 --seed 3': 'ea0f1e4c33fe8ffaa127b5b1aa9a80b0d6971ba2d07e79ab2fd2f166f91bbcbc',
    'stats --model builtin:geom-pm01 --count 100 --seed 3 --max-level 4 --out census.csv': '191178b6d79bbf2b126cfdff1efd999f0598a78b5a3ef1579799af6aa5d10446',
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(row: str, cwd: Path) -> dict:
    """Exit code, stdout and stderr of each command of ``row`` run in ``cwd``,
    then the SHA-256 of every file written there."""
    runs = []
    for command in row.split(" && "):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(command.split(" "))
        runs.append([code, sha(out.getvalue().encode()), sha(err.getvalue().encode())])
    files = {p.name: sha(p.read_bytes()) for p in sorted(cwd.iterdir())}
    return {"runs": runs, "files": files}


def digest(result: dict) -> str:
    return sha(json.dumps(result, sort_keys=True).encode())


@pytest.mark.parametrize("row", ROWS)
def test_golden_output(row, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = outcome(row, tmp_path)
    assert digest(result) == GOLDEN[row], result


def test_every_row_is_pinned():
    assert sorted(GOLDEN) == sorted(ROWS)


if __name__ == "__main__":
    here = os.getcwd()
    for row in ROWS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                print(f"    {row!r}: {digest(outcome(row, Path(tmp)))!r},")
            finally:
                os.chdir(here)
