"""Golden stdout digests: the verify reports, series dumps, coset tables and
oracle point queries must stay byte-identical across refactors and speed-ups.

Each digest is the SHA-256 of everything the command writes to stdout.
The amice, biamice, oracle, additivity, table, value and bivalue digests
were recorded under FORMAT_VERSION "1" and are unchanged since.  Format "2"
printed each series coefficient as its canonical residue below
p^(guarantee).  Format "3" certifies every coefficient mod p^p_prec, by the
proven tail bound of series.py: the series dumps print that one guarantee,
and logproduct (alone and in `all`) checks one bound per run, so the
series, logproduct and all digests were re-recorded under it.  Format "4"
builds each logarithm from numerators reduced mod p^(p_prec + K + 1), K
the factor count: the series dumps print the same residues, and their
digests are unchanged, but logproduct's `v_p(residual) = v` reads digits
past the certified ones, so the seven logproduct and three all digests
were re-recorded under it.  After a deliberate FORMAT_VERSION bump,
regenerate them with

    PYTHONPATH=src python tests/test_golden.py

which prints a fresh GOLDEN table to paste here, and note the format
change in CHANGES.md.
"""

import contextlib
import hashlib
import io

import pytest

import pmlog.cli as cli

GOLDEN = {
    "verify --suite amice --p 2 --max-n 5": "e5bcea9b5a5a798f898b6683c96117cecd4ccadffea78c7d307d1e15158704d9",
    "verify --suite amice --p 3 --max-n 4": "ad04eda8b6ed16db1d2042dd738f664285f00b803e6517a942166caf76225145",
    "verify --suite amice --p 5 --max-n 3": "d401a2a867cdf8baac7781a7d2b77b046c8b3aa12fcdc7c453a8c671dc9af29e",
    "verify --suite biamice --p 2 --max-n 5": "fc8897054d5e92697130815f4f64a52ba9c94606e5d7892f0cee51e6c54fbab4",
    "verify --suite biamice --p 3 --max-n 4": "23cf74d097d65261b261f8fe50e1dd7cfcf33659b3f8959f81bfb17bd4ad354c",
    "verify --suite biamice --p 5 --max-n 3": "dd311d44f2734289a8d36aea60c3f559612a7ff5fb59e4ca6420b03014af2205",
    # The benchmark's own interp invocations.
    "verify --suite amice --p 2 --max-n 6": "b0929eca36df9ea71415fa0c28bfb3b92adee11186b163a178b82ba4159bc4a9",
    "verify --suite biamice --p 2 --max-n 4": "1cfa2c5e6c719f4e338650191b8e12ab1dbcd62d109558faf6680d2c4fc503f4",
    "verify --suite biamice --p 3 --max-n 3": "48086b4bed192c5a3213198bc2cc8ed532185d46b37ae4ae8a50362101047f2c",
    # Larger p, where the right sides skip the most levels above k.
    "verify --suite amice --p 7 --max-n 4": "d0611db93fbd2fcf8b52b5f58d090bf901ac1d1479985dcfcf6d8c2d2e4ceb8c",
    "verify --suite amice --p 13 --max-n 3": "bca9b9b02ccb901661145cf8fa53872a3c8671ab1a20321c4b4a334ac5c88fbf",
    "verify --suite biamice --p 7 --max-n 2": "17f13bc1e1babb59f72ce81b4f56e58026a13964ea5cc9e2d832e8f49622e89f",
    "verify --suite all --p 2 --max-n 5": "746454004585e2ef737ab26384c37afaf0d27ac6e3902e3b59fdef2bcc40e82a",
    "verify --suite all --p 3 --max-n 4": "f1ea87d097449ebbbfd86384cb16e1bb983ff37907092ffdde613e1ca78dd6ed",
    "verify --suite all --p 5 --max-n 3": "2eea3d9f92aad45aa09f8f37d7b5581f874075070df415c943c4212722b9438e",
    "series --sign + --p 2 --tprec 48 --pprec 32": "86b61959a18bf5c87d604b364513c8cab10c14821074f0874ba93dc8c14a143b",
    "series --sign - --p 3 --tprec 32 --pprec 16": "fe331b180e6a3374077ccd3c995214f32c73121c87a91b1df6f44ee925cf6828",
    "verify --suite logproduct --p 2 --tprec 40 --pprec 24": "ccb481714a5ddb5b3e3361e1ed4fa05a63cd145ba0d7f6507c517bcdaa98a984",
    "verify --suite logproduct --p 7 --tprec 24 --pprec 10": "b65bccb994a88cfc22a3aee4229bca3987120572f20d4bc75ba54f1277acac23",
    "table --sign + --p 3 --n 6": "7399272408c71e030fa4875feedc34886edda65f1d9ce9ba420df5487bbcd471",
    "verify --suite oracle --p 5 --max-n 4": "cd49d30d44cbae7dae8bb2adebed0363d65853aa0833c745190c008f15570d43",
    "verify --suite additivity --p 3 --max-n 6": "92f48885f6c3dbdda489594a66f7363e2f45b314b2729a79d0255bc22217e6f6",
    "table --sign - --p 5 --n 4": "5bbec60aa07f50325881a37bef312cab5f5110b1ed34626a2bc3d465e0d98721",
    "table --sign -+ --p 3 --n 3 --m 3": "830645a903a6a01d579ae8dc05fe88ca22cd561717b3831e023c13b9ea9afe14",
    "value --sign - --p 5 --n 4 --a 26 --oracle": "971f0c2641fdcdb1b86bb73335855cf836e6f42e64f200d8bc6aa8f361eecbe3",
    "bivalue --sign +- --p 3 --n 3 --m 2 --a 3 --b 1 --oracle": "375c6a6898a2bcc2db934bd8072bef0cc3f0db3d1943b7858e2ab1f037964414",
    "table --sign -- --p 2 --n 4 --m 3": "e7a3cf5dcff38e895af3d09f57915c2fd1f189fd5e72a287fca83cb153836aa1",
    "table --sign + --p 7 --n 3": "b5f9722bb25dd8d8ab53207c4fdc60a3eb68e273e519dd62f92dd00a875ad5ef",
    # phi_shifted sums binomial rows when 3 (p - 1) <= t_prec and takes the
    # quotient otherwise: p 13, 1000003 and 31 are on the quotient side, and
    # so are (13, 12), (11, 10) and (7, 5), where t_prec is about p - 1;
    # (5, 12), (13, 36) and (11, 30) sit on the switch, and (7, 17) is one
    # step short of it.
    "series --sign - --p 13 --tprec 8 --pprec 6": "3d29acb86851c02c37e46885115ba6fec9baa58b59b76d9e71f23faecb70d287",
    "series --sign + --p 1000003 --tprec 8 --pprec 6": "2a8eb4fb5c5e44fa201559cb50b9a24446915764a0e80b4bc9d06735eea5f49b",
    "verify --suite logproduct --p 31 --tprec 24 --pprec 12": "41b22b2f7ca677af6c4b937c1dcac22affa5103f54e74741011cc026f500c67f",
    "verify --suite logproduct --p 13 --tprec 12 --pprec 8": "3e44a706ca3eff298597e214f28dd06739872ee04f5c46f875911eade3316b4b",
    "series --sign + --p 11 --tprec 10 --pprec 8": "1d0c16bc7a9fac99edffadb5c65ac25d19465e1914d7bb10b9f8eef86cd00064",
    "verify --suite logproduct --p 2 --tprec 64 --pprec 40": "72d4b7075ac6e98fb99d1bbc582b692a944008ba3ac4e377502db19d75622140",
    "series --sign - --p 7 --tprec 5 --pprec 8": "e110168afa29a5b1d98a4ecaf187e84c2d09a9dca856a647d2aa5678e899c01b",
    "verify --suite logproduct --p 5 --tprec 12 --pprec 8": "7cf7154daafa80cd2a5b80e179daedf9d6e3507004227e94a46aed9646dc483a",
    "verify --suite logproduct --p 13 --tprec 36 --pprec 8": "3781547c756aec86878c3477e806a6e67c75802c7a6dea95a9b78bc94aca7292",
    "series --sign + --p 11 --tprec 30 --pprec 8": "c307a2eea065a0e9325fa00415bb1fc688f457d23fefdc27d8157d0cb260ebc5",
    "series --sign - --p 7 --tprec 17 --pprec 8": "f8b2d43bd81b5f1c8c027424b7fc822dfd23b44c940968550243b28db52f7258",
    # The benchmark's scan invocations not pinned above, an odd-n table and
    # a table with n < m, which the level-at-once tables split in halves.
    "table --sign + --p 3 --n 8": "0aff028e9ceec4cf5b16ba2c1cc6cdfc4136656d4dad3a809969b783b52a1728",
    "verify --suite oracle --p 3 --max-n 6": "25469333055fb6755567af0da096d015b888fdd94fc146c1ec3cf8e887386118",
    "table --sign - --p 2 --n 9": "e35dead0db32c2f7d506ca4bf3f852c979203c49a54983df09c3ed2d79f11ef6",
    "table --sign +- --p 5 --n 2 --m 3": "a2f412eef397ad167fb2196689d054fbc4335cf500c88b569a17aa1d3cfde1d0",
    # Levels of more cases than one write of the report writer (4,096).
    "verify --suite additivity --p 2 --max-n 13": "bcefa496697ce68af3927c54bd12a4cdc0041e1a4040ce7e3f6e0a82c232b0ee",
    "verify --suite oracle --p 2 --max-n 12": "3f51b2c6c72f708220315629d28ad5a88bf270815efbb7a844973b06c60a2bec",
    # A dump whose exact product's numerators would run past the 4,300-digit
    # print limit.
    "series --sign - --p 2305843009213693951 --tprec 24 --pprec 24": "11d0bd156b84f8c852a77b0d7419e8a839b8031d8e2ceff6dc24618163c25602",
}


def stdout_digest(command: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(command.split())
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_golden_digest(command):
    code, digest = stdout_digest(command)
    assert code == 0
    assert digest == GOLDEN[command]


if __name__ == "__main__":
    print("GOLDEN = {")
    for command in GOLDEN:
        print(f'    "{command}": "{stdout_digest(command)[1]}",')
    print("}")
