import io
import json
import math
import random

import pytest

from pfecalc import identities
from pfecalc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_partition_json(capsys):
    code, out, _ = run(capsys, "expand", "partition", "--order", "10")
    assert code == 0
    record = json.loads(out)
    assert record["name"] == "partition"
    assert [int(num) for num, den in record["coefficients"]] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    ]
    assert all(den == "1" for _, den in record["coefficients"])


def test_expand_bfile(capsys):
    code, out, _ = run(capsys, "expand", "distinct", "-n", "6", "--format", "bfile")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 1", "2 1", "3 2", "4 2", "5 3", "6 4"]


def test_expand_bfile_rejects_fractions(capsys):
    code, out, err = run(
        capsys, "expand", "colored", "--r", "1/2", "-n", "4", "--format", "bfile"
    )
    assert code == 2
    assert "bfile" in err
    assert out == ""


def test_from_g_bfile_rejects_fractions_without_partial_output(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("1\n0\n0\n")  # g = (1, 0, 0): P = 1, 1, 1/2, 1/6
    code, out, err = run(
        capsys, "from-g", "--input", str(f), "--order", "3", "--format", "bfile"
    )
    assert code == 2
    assert "coefficient 2 is 1/2" in err
    assert out == ""


def test_expand_missing_series_parameter(capsys):
    code, out, err = run(capsys, "expand", "jtp", "-n", "4")
    assert code == 2
    assert out == ""
    assert err == "error: series 'jtp' needs the parameter z\n"


def test_expand_csv(capsys):
    code, out, _ = run(
        capsys, "expand", "colored", "--r", "1/2", "-n", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,numerator,denominator"
    assert lines[1] == "0,1,1"
    assert lines[2] == "1,1,2"


def test_expand_unknown_series(capsys):
    code, _, err = run(capsys, "expand", "nope", "-n", "4")
    assert code == 2
    assert "unknown series" in err


def test_expand_bad_rational(capsys):
    code, _, err = run(capsys, "expand", "colored", "--r", "x/y", "-n", "4")
    assert code == 2
    assert "bad rational" in err


def test_to_product_partition_series(tmp_path, capsys):
    f = tmp_path / "p.txt"
    # partition numbers, one per line, with a comment
    f.write_text("# partition numbers\n1\n1\n2\n3\n5\n7\n11\n15\n")
    code, out, _ = run(capsys, "to-product", "--input", str(f), "--order", "7")
    assert code == 0
    record = json.loads(out)
    # all exponents are 1: the product is prod 1/(1 - q^k)
    assert [num for num, den in record["coefficients"][1:]] == ["1"] * 7


def test_to_product_requires_unit_constant(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("2\n1\n")
    code, _, err = run(capsys, "to-product", "--input", str(f), "--order", "1")
    assert code == 2
    assert "constant term" in err


def test_to_product_missing_value(tmp_path, capsys):
    f = tmp_path / "sparse.txt"
    f.write_text("0 1\n2 5\n")
    code, _, err = run(capsys, "to-product", "--input", str(f), "--order", "2")
    assert code == 2
    assert "missing" in err


def test_from_g_exponential(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("1 1\n" + "".join(f"{n} 0\n" for n in range(2, 9)))
    code, out, _ = run(capsys, "from-g", "--input", str(f), "--order", "8")
    assert code == 0
    record = json.loads(out)
    nums = [(num, den) for num, den in record["coefficients"]]
    for n in range(9):
        assert nums[n] == ("1", str(math.factorial(n)))


def test_verify_pass_and_json(capsys):
    code, out, _ = run(capsys, "verify", "ramanujan_partition", "-n", "50")
    assert code == 0
    assert "pass" in out
    code, out, _ = run(
        capsys, "verify", "zeta_rec", "-n", "10", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["report"]["passed"] is True


def test_verify_with_params(capsys):
    code, out, _ = run(
        capsys, "verify", "pr_ps", "-n", "20", "--r", "5/2", "--s", "-3",
        "--random-series", "--seed", "7",
    )
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "jtp_power_rec", "-n", "20", "--r", "1/2", "--z", "1/3"
    )
    assert code == 0


def test_verify_unknown_key(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2
    assert "unknown identity" in err


def test_congruence_pass(capsys):
    code, out, _ = run(
        capsys, "congruence", "--p", "5", "--r", "1", "--family", "4", "--max-m", "20"
    )
    assert code == 0
    assert "pass" in out


def test_congruence_bad_residue(capsys):
    code, _, err = run(
        capsys, "congruence", "--p", "5", "--r", "2", "--family", "4", "--max-m", "5"
    )
    assert code == 2
    assert "violates" in err


def test_roots_check_integral(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("1\n4\n4\n4\n4\n4\n")
    code, out, _ = run(
        capsys, "roots-check", "--input", str(f), "--order", "5", "--p", "2", "--r", "2"
    )
    assert code == 0
    assert "integral" in out and "pass" in out


def test_roots_check_divisibility_failure(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("1\n1\n1\n")
    code, out, _ = run(
        capsys, "roots-check", "--input", str(f), "--order", "2", "--p", "2", "--r", "1"
    )
    assert code == 1
    assert "FAIL" in out


def test_roots_check_root_flags(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("1\n4\n4\n")
    code, out, _ = run(
        capsys, "roots-check", "--input", str(f), "--order", "2",
        "--m", "2", "--t", "2", "--s", "1",
    )
    assert code == 0
    assert "integral=True" in out
    code, _, err = run(
        capsys, "roots-check", "--input", str(f), "--order", "2", "--m", "2"
    )
    assert code == 2


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n1\n1\n1\n"))
    code, out, _ = run(capsys, "to-product", "--input", "-", "--order", "3")
    assert code == 0
    record = json.loads(out)
    assert record["coefficients"][1] == ["1", "1"]


def test_input_rationals_and_comments(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("# header\n0 1\n1 1/2   # a rational value\n\n2 3/8\n")
    code, out, _ = run(
        capsys, "to-product", "--input", str(f), "--order", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[1] == "0,0,1"


def test_input_parse_error(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("1\nfoo\n")
    code, _, err = run(capsys, "to-product", "--input", str(f), "--order", "1")
    assert code == 2
    assert ":2:" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "to-product", "--input", "/no/such/file", "--order", "1")
    assert code == 2
    assert "cannot open" in err


@pytest.mark.parametrize("order", ["0", "-3"])
def test_verify_rejects_orders_below_one(capsys, order):
    code, out, err = run(capsys, "verify", "euler_sigma", "-n", order)
    assert code == 2
    assert out == ""
    assert "order must be a positive integer" in err


@pytest.mark.parametrize(
    "flags, message",
    [(["--p", "4"], "p must be prime"), (["--p", "2", "--r", "0"], "r must be")],
)
def test_roots_check_rejects_bad_prime_power(tmp_path, capsys, flags, message):
    f = tmp_path / "p.txt"
    f.write_text("1\n4\n4\n")
    code, out, err = run(
        capsys, "roots-check", "--input", str(f), "--order", "2", *flags
    )
    assert code == 2
    assert out == ""
    assert message in err


def test_roots_check_failed_hypothesis_leaves_no_output(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("1\n4\n4\n")
    code, out, err = run(
        capsys, "roots-check", "--input", str(f), "--order", "2",
        "--m", "2", "--t", "3", "--s", "1",
    )
    assert code == 2
    assert out == ""
    assert "hypothesis fails" in err


def test_input_repeated_index(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("1\n1\n0 1\n")  # the third line repeats index 0
    code, out, err = run(capsys, "to-product", "--input", str(f), "--order", "1")
    assert code == 2
    assert out == ""
    assert f"{f}:3: repeated index 0" in err


@pytest.mark.parametrize("flags", [["--r", "2"], ["--series", "1,2,3"]])
def test_verify_rejects_a_parameter_its_check_does_not_take(capsys, flags):
    code, out, err = run(capsys, "verify", "euler_sigma", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: identity 'euler_sigma' takes no parameter ")


@pytest.mark.parametrize("flags", [["--series", "1,2"], ["--random-series"]])
def test_verify_names_the_series_flag_a_check_does_not_take(capsys, flags):
    code, out, err = run(capsys, "verify", "euler_sigma", *flags)
    assert (code, out) == (2, "")
    assert err == f"error: identity 'euler_sigma' takes no parameter {flags[0]}\n"


@pytest.mark.parametrize("key", ["euler_sigma", "pr_ps"])
def test_verify_seed_needs_random_series(capsys, key):
    code, out, err = run(capsys, "verify", key, "--seed", "5", "-n", "5")
    assert (code, out) == (2, "")
    assert err == "error: --seed needs --random-series\n"


def test_random_series_without_seed_draws_from_seed_zero(capsys, monkeypatch):
    seeds, real = [], random.Random
    monkeypatch.setattr(random, "Random", lambda seed: seeds.append(seed) or real(seed))
    # the random Q has rational coefficients, so pr_ps runs the rescaled powers
    argv = ["verify", "pr_ps", "-n", "30", "--r", "1/6", "--s", "5/7",
            "--random-series", "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["report"]["passed"] is True
    assert run(capsys, *argv, "--seed", "0") == (0, out, "")
    assert run(capsys, *argv, "--seed", "3")[0] == 0
    assert seeds == [0, 0, 3]


@pytest.mark.parametrize("command", ["to-product", "from-g", "roots-check"])
def test_negative_order_is_a_usage_error(tmp_path, capsys, command):
    f = tmp_path / "in.txt"
    f.write_text("1\n1\n")
    code, out, err = run(capsys, command, "--input", str(f), "--order", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: order must be non-negative, got -1\n"


_SERIES_PARAMETERS = {
    "jtp": ["--z", "2"], "colored": ["--r", "1/2"], "eta_power": ["--r", "2"],
    "fibonacci_power": ["--r", "3"], "exp": ["--a", "1"],
    "sin_normalized": ["--m", "2"], "gamma_truncated": ["--m", "2"],
    "symmetric": ["--x", "1,2"],
}


def test_expand_rejects_a_negative_order_for_every_series(capsys):
    for name in identities.SERIES_NAMES:
        params = _SERIES_PARAMETERS.get(name, [])
        code, out, _ = run(capsys, "expand", name, *params, "-n", "0")
        assert code == 0, name
        assert json.loads(out)["coefficients"] == [["1", "1"]], name
        code, out, err = run(capsys, "expand", name, *params, "-n", "-3")
        assert (code, out) == (2, ""), name
        assert err == "error: order must be non-negative, got -3\n", name
