"""Byte-exact CLI output on a fixed golden set: the sha256 of stdout and the
exit code of every command below must not change under a refactor."""

import hashlib

import pytest

from braidbowl.cli import main

GOLDEN = [
    (
        ("rho", "1 2 1 3 2 1", "--n", "4", "--max-balls", "2"),
        0, "eb71bfdbac58e3c6cfcb9d35ddbd58bac9cf2b96fb8f4edea6c6dde8b0601da5",
    ),
    (
        ("rho", "1 2 1 3 2 1", "--n", "4", "--max-balls", "2",
         "--format", "pretty", "--eval-q", "1/2"),
        0, "32d1827173cee5ea8e09e31dbdd00873855f10e96c27f73144107b87fe5d3a48",
    ),
    (
        ("cabled", "1 2 1 1", "--n", "3", "--cable", "2"),
        0, "dcd979e610d0637a3baf32da87433d04eac62dbec238251b20d36fd356705d9b",
    ),
    (
        ("cabled", "1 2 1 1", "--n", "3", "--cable", "2", "--format", "pretty"),
        0, "9d124151dc5deb8cbd5d84eaeacfc1f73e8b2789b7385b48475a4542ee139938",
    ),
    (
        ("fall", "--cable", "3", "--a", "2", "--b", "1"),
        0, "d6ecb96ed3f70f85eb19f07c2d3f507f99d242c43447474064ea5f023b908a2d",
    ),
    (
        ("fall", "--cable", "3", "--a", "2", "--b", "1", "--format", "pretty"),
        0, "84c4b550bd5ae10e6f5251b668f01367bdceda958cb697b1dd0af4aaecf00dfa",
    ),
    (
        ("check", "all", "--n", "4", "--max-balls", "2", "--cable", "3",
         "--format", "json"),
        0, "d98259ce3c9b14b8542e53bb57874a0b2d1c29492e1b27a64eadbd6082f2d6c3",
    ),
    (
        ("check", "cabled", "--n", "3", "--cable", "4", "--format", "json"),
        0, "d1e2be13ed2af19d7a88990cb24561a046b8862c87c47ffb8990d7767432cdaa",
    ),
    (
        ("check", "hecke", "--n", "2", "--max-balls", "1", "--corrupt-generator",
         "--format", "json"),
        1, "68f196c0db9ae562bff7e013a24efda8a90958d5bea02843f33621465aab7d52",
    ),
    (
        ("rho", "1 2 1 3 2 1", "--n", "4", "--max-balls", "2", "--eval-q", "1/2"),
        0, "ae5dda904bfc1daaaa4b0f54f9457fbe09fcd2d218a952ac5c3c4a8a7b9ec311",
    ),
    # At q = 1 the (1 - q) entries vanish and a permutation matrix is left.
    (
        ("cabled", "1 2 1 1", "--n", "3", "--cable", "2", "--eval-q", "1"),
        0, "dc883981cfd38c81a1ff0f7957fb562cc0af801a60a32d3a2f4540292abc0d0d",
    ),
    (
        ("rho", "", "--n", "1", "--max-balls", "2"),
        0, "0503c34b203d39141370263a824b4b220a1637d1576b65ef0728e22013d10481",
    ),
    # Long words whose coefficient bound needs more than 64 bits per digit.
    (
        ("rho", " ".join(["1 2"] * 20), "--n", "3", "--max-balls", "2"),
        0, "7294cba73e21e491009edd5783f2f95a9e451abde86490c2c65e3310d9dd1f7f",
    ),
    (
        ("cabled", " ".join(["1"] * 12), "--n", "2", "--cable", "4"),
        0, "089ec2f7905fc1b8636194b26fefb72725e9c375208fc1b23738a05c48920278",
    ),
    # Most columns are relabelled copies of a pushed one: 75 of 256 states
    # are pushed at n = 4, N = 3, and 13 of 216 at n = 3, N = 5.
    (
        ("rho", "1 2 1 3 2 1", "--n", "4", "--max-balls", "3"),
        0, "8e170771565417abebb2fb864b5d73c338dc8cd16e14e5b4a8067487f2a62c63",
    ),
    (
        ("rho", "2 1 2 1", "--n", "3", "--max-balls", "5", "--format", "pretty",
         "--eval-q", "2/3"),
        0, "2c6fcb16c28ba2fd3e7f0986d1126bc66d8354b97f63c6fad72b8ef18006a499",
    ),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_cli_output_matches_golden_digest(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_out_file_matches_golden_digest(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    argv = ["rho", "1 2 1 3 2 1", "--n", "4", "--max-balls", "2", "--out", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "eb71bfdbac58e3c6cfcb9d35ddbd58bac9cf2b96fb8f4edea6c6dde8b0601da5"
