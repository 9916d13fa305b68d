"""End-to-end CLI behavior: output contracts and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spa.config
import spa.costs
import spa.errors
from spa import parse, simplify
from spa.cli import _role_cost

from .dotcheck import check_dot
from .helpers import (
    ANDREW,
    CORPUS,
    DEFAULT_CONFIG,
    KEY_WRAP,
    ROOT,
    X509_MODIFIED,
    X509_ORIGINAL,
    read,
    run_cli,
    stack_depth,
)

S_KA = ("⟨{A, B, N_a, K_AB}, A, ⟨+(A, N_a), -{N_a, K, B}_sk(K_AB), "
        "+{N_a}_sk(K), -N_b⟩⟩")

SEALED = """
protocol sealed {
  roles A, B;
  nonce N;
  key K;
  knows A: {N}pk(K);
  A -> B: N;
}
"""


IDLE = """
protocol idle {
  roles A, B, C;
  nonce N;
  knows A: N;
  A -> B: N;
}
"""


# two repros of payload matching: every C_E input and every hash body was
# awaited by two strands at once, and so was N by B and C
AMB1 = """
protocol amb1 {
  roles A, B; nonce N0, N1, N2; key K0, K1;
  knows A: B, K0, K1;
  knows B: A, K0, K1;
  A -> B: {N0}sk(K0), h(K0, N0), {N0}pk(K1);
  B -> A: {N1}sk(K0), h(N0, N1), {N1}pk(K1);
  A -> B: {N2}sk(K0), h(N1, N2), {N2}pk(K1);
}
"""

AMB2 = "protocol amb2 { roles B, C, A; nonce N; knows A: B, C, N; A -> B: N; A -> C: N; }"


def write(tmp_path, text, name="t.spa"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_ok():
    code, out, err = run_cli("check", ANDREW)
    assert code == 0
    assert out == "ok: andrew_rpc (2 roles, 4 messages)\n"
    assert err == ""


def test_check_reports_parse_errors(tmp_path):
    path = write(tmp_path, "protocol p { roles A, B; nonce N; A -> B: X; }")
    code, out, err = run_cli("check", path)
    assert code == 2
    assert "UndeclaredIdentifier" in err
    assert "line" in err


def test_missing_file_is_io_error():
    code, _, err = run_cli("check", "/no/such/file.spa")
    assert code == 1
    assert "IOError" in err


def test_model_text_all_roles():
    code, out, _ = run_cli("model", ANDREW)
    assert code == 0
    assert S_KA in out
    assert "⟨C_P, A, ⟨+(r, n), -{n, k, r}_sk, +{n}_sk, -n⟩⟩" in out
    assert "⟨C_P, B, ⟨-(r, n), +{n, k, r}_sk, -{n}_sk, +n⟩⟩" in out


def test_model_text_single_role():
    code, out, _ = run_cli("model", ANDREW, "--role", "A")
    assert code == 0
    assert S_KA in out
    assert "⟨C_P, B," not in out


def test_model_unknown_role():
    code, _, err = run_cli("model", ANDREW, "--role", "Z")
    assert code == 2
    assert "UnknownRole" in err


def test_model_json():
    code, out, _ = run_cli("model", ANDREW, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["protocol"] == "andrew_rpc"
    assert doc["roles"] == ["A", "B"]
    assert doc["nodes"] == 8
    strand = doc["strands"][0]
    assert strand["role"] == "A"
    assert strand["fresh"] == ["N_a"]
    assert strand["process"]["classifier"] == "C_P"
    assert strand["seq"][0] == "+(A, N_a)"
    ops_b = [op["classifier"] for op in doc["strands"][1]["ops"]]
    assert ops_b == ["C_I", "C_K", "C_C", "C_C", "C_E", "C_N"]


def test_model_dot_tspace():
    code, out, _ = run_cli("model", KEY_WRAP, "--role", "B", "--format", "dot")
    assert code == 0
    stats = check_dot(out)
    assert stats.clusters == 5  # process + C_K + 2*C_C + C_E
    assert stats.nodes == 10
    assert stats.edges == 8  # 5 succession + 3 communication
    assert {"process", "C_K", "C_C", "C_E"} <= set(stats.labels)
    assert out.count("style=dashed") == 3
    assert out.count("style=solid") == 5


def test_model_dot_kspace():
    code, out, _ = run_cli("model", ANDREW, "--format", "dot")
    assert code == 0
    stats = check_dot(out)
    assert stats.clusters == 2
    assert stats.nodes == 8
    assert stats.edges == 6 + 4  # succession + one comm edge per message
    assert out.count("style=dashed") == 4


def dashed(out):
    return [line.split(" [")[0].strip() for line in out.splitlines() if "dashed" in line]


def test_model_dot_role_with_equal_payloads_awaited_twice(tmp_path):
    code, out, err = run_cli("model", write(tmp_path, AMB1), "--role", "A", "--format", "dot")
    assert (code, err) == (0, "")
    check_dot(out)
    assert len(dashed(out)) == len(set(edge.split(" -> ")[1] for edge in dashed(out))) > 0


def test_model_dot_one_edge_per_message_of_one_payload(tmp_path):
    code, out, err = run_cli("model", write(tmp_path, AMB2), "--format", "dot")
    assert (code, err) == (0, "")
    check_dot(out)
    assert dashed(out) == ["n2_1 -> n0_1", "n2_2 -> n1_1"]


def test_model_dot_event_less_role_titled_with_role(tmp_path):
    code, out, _ = run_cli("model", write(tmp_path, IDLE), "--role", "C", "--format", "dot")
    assert code == 0
    assert out.startswith('digraph "idle:C" {\n')
    assert check_dot(out).clusters == 0


def test_model_dot_stable():
    first = run_cli("model", ANDREW, "--format", "dot")
    second = run_cli("model", ANDREW, "--format", "dot")
    assert first == second


def test_cost_simplified_default():
    code, out, _ = run_cli("cost", X509_ORIGINAL, "--role", "A")
    assert code == 0
    assert out == ("f_pk(|m|) + f_ng(|n|) + 4*L_C + "
                   "f_h(2|n| + |r| + |m| + S_asym(|m|)) + f_pk(S_hash) + "
                   "8*L_P\n")
    explicit = run_cli("cost", X509_ORIGINAL, "--role", "A", "--simplified")
    assert explicit == (code, out, "")


def test_cost_raw():
    code, out, _ = run_cli("cost", KEY_WRAP, "--role", "B", "--raw")
    assert code == 0
    assert out.startswith("f_kg(|k|) + f_c(|n|, |k|)")
    assert "L_C" not in out and "L_P" not in out


def test_cost_event_less_role(tmp_path):
    code, out, _ = run_cli("cost", write(tmp_path, IDLE), "--role", "C")
    assert code == 0
    assert out == "0\n"


def test_cost_receiver_only_processing():
    code, out, _ = run_cli("cost", KEY_WRAP, "--role", "A")
    assert code == 0
    assert out == "0\n"  # receiving stores the term whole


def test_compare_verdict_and_residual():
    code, out, _ = run_cli("compare", X509_ORIGINAL, X509_MODIFIED, "--role", "A")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: Less"
    assert lines[1] == "residual: f_h(|n|) < f_pk(|n|)"


def test_compare_default_role_is_first_of_first_file():
    explicit = run_cli("compare", X509_ORIGINAL, X509_MODIFIED, "--role", "A")
    implicit = run_cli("compare", X509_ORIGINAL, X509_MODIFIED)
    assert implicit == explicit


def test_compare_numeric_with_config():
    code, out, _ = run_cli(
        "compare", X509_ORIGINAL, X509_MODIFIED, "--config", DEFAULT_CONFIG,
    )
    assert code == 0
    assert "numeric: 1705.14 vs 1864.98" in out


def test_compare_trace():
    code, out, _ = run_cli(
        "compare", X509_ORIGINAL, X509_MODIFIED, "--role", "A", "--trace",
    )
    assert code == 0
    assert "trace:" in out
    body = out.split("trace:\n", 1)[1]
    steps = [line.strip() for line in body.splitlines()]
    assert steps[-1] == "verdict: Less"
    assert any(step.startswith("cancel:") for step in steps)
    assert any(step.startswith("expand") for step in steps)
    assert any(step.startswith("dominance:") for step in steps)


def test_greater_trace_puts_the_dominating_term_first():
    for config in ((), ("--config", DEFAULT_CONFIG)):
        code, out, _ = run_cli(
            "compare", X509_MODIFIED, X509_ORIGINAL, "--trace", *config,
        )
        assert code == 0
        lines = [line.strip() for line in out.splitlines()]
        assert lines[:2] == ["verdict: Greater", "residual: f_pk(|n|) > f_h(|n|)"]
        assert "dominance: f_pk(|n|) > f_h(|n|)" in lines


def test_compare_self_is_equal():
    code, out, _ = run_cli("compare", ANDREW, ANDREW, "--role", "B")
    assert code == 0
    assert out.splitlines()[0] == "verdict: Equal"


def test_eval_breakdown():
    code, out, _ = run_cli(
        "eval", X509_ORIGINAL, "--role", "A", "--config", DEFAULT_CONFIG,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value: 1705.140000"
    assert "  f_pk(|m|) = 1250.000000" in lines
    assert "  f_pk(S_hash) = 450.000000" in lines
    assert "  8*L_P = 0.400000" in lines


def test_eval_values_each_distinct_term_once(monkeypatch):
    # `spa eval` prints the total, then each term's line, and `compare
    # --config` values both sides under one model: each distinct term is
    # valued once, when it enters the model's table, and read from it after
    valued = []

    class Counted(dict):
        def __setitem__(self, term, value):
            valued.append(term)
            super().__setitem__(term, value)

    def counted_model(*args, **kwargs):
        # the loaded model, which may be alive from an earlier call, with a
        # fresh table that records what enters it
        m = spa.costs.CostModel(*args, **kwargs)
        object.__setattr__(m, "_values", Counted())
        return m

    monkeypatch.setattr(spa.config, "CostModel", counted_model)
    spec = parse(read(X509_ORIGINAL))
    for label in ("A", "B"):
        valued.clear()
        code, out, _ = run_cli("eval", X509_ORIGINAL, "--role", label, "--config", DEFAULT_CONFIG)
        assert code == 0
        terms = [term for term, _ in simplify(_role_cost(spec, label)).terms]
        assert len(out.splitlines()) == 1 + len(terms)
        assert valued == terms
    valued.clear()
    code, _, _ = run_cli("compare", X509_MODIFIED, X509_ORIGINAL, "--config", DEFAULT_CONFIG)
    assert code == 0
    sides = [simplify(_role_cost(parse(read(path)), "A")).terms
             for path in (X509_MODIFIED, X509_ORIGINAL)]
    assert valued == list(dict.fromkeys(term for side in sides for term, _ in side))


def test_extraction_failure_exit_code(tmp_path):
    path = write(tmp_path, SEALED)
    code, _, err = run_cli("cost", path, "--role", "A")
    assert code == 3
    assert "Unrecoverable" in err
    assert "(A)" in err


def test_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"sizes": {}}', encoding="utf-8")
    code, _, err = run_cli(
        "eval", X509_ORIGINAL, "--role", "A", "--config", str(cfg),
    )
    assert code == 4
    assert "ConfigError" in err


def test_dominance_entry_not_a_name_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    data = json.loads(Path(DEFAULT_CONFIG).read_text(encoding="utf-8"))
    data["assumptions"]["dominance"] = [[["f_pk"], "f_h"]]
    cfg.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("compare", X509_ORIGINAL, X509_MODIFIED, "--config", str(cfg)) == (
        4, "", "ConfigError: unknown cost function ['f_pk'] in dominance\n",
    )


def test_missing_config_file_is_io_error():
    code, _, err = run_cli(
        "eval", X509_ORIGINAL, "--role", "A", "--config", "/no/cfg.json",
    )
    assert code == 1
    assert "IOError" in err


def test_parse_time_ungeneratable_is_validation(tmp_path):
    path = write(tmp_path, """
    protocol p {
      roles A, B;
      data D;
      knows B: D;
      A -> B: D;
    }
    """)
    code, _, err = run_cli("check", path)
    assert code == 2
    assert "Ungeneratable" in err


SEALED_DATA = "protocol p { roles A, B; data D; key K; knows A: {D}sk(K); A -> B: D; }"
# A meets the role name B only inside a hash it received
HASHED_ROLE = "protocol p { roles A, B; nonce N; knows B: A; B -> A: h(N, B); A -> B: B; }"
UNHELD_DATA = "protocol p { roles A, B; data D; knows B: D; A -> B: D; }"
LATIN1 = b"// caf\xe9\nprotocol p { roles A, B; nonce N; A -> B: N; }\n"


def _overflowing_config() -> str:
    data = json.loads(Path(DEFAULT_CONFIG).read_text(encoding="utf-8"))
    data["sizes"].update(r=1e308, n=1e308)
    return json.dumps(data)


# one row per cause of failure: the protocol, the command and its options,
# the config (None: none written), and the exit code and stderr line, in
# which `{spec}` and `{cfg}` stand for the written files' paths
FAILURES = {
    "parse-time-ungeneratable": (
        UNHELD_DATA, ("cost", "--role", "A"), None, 2,
        "Ungeneratable: role A sends D without holding it, and data atoms cannot be generated"),
    "unknown-role": (
        SEALED_DATA, ("cost", "--role", "Z"), None, 2, "UnknownRole: 'Z' is not a role of p"),
    "not-utf-8": (
        LATIN1, ("cost", "--role", "A"), None, 2,
        "ParseError: {spec} is not UTF-8 text (invalid continuation byte at byte 6)"),
    "sealed-nonce": (
        SEALED, ("cost", "--role", "A"), None, 3,
        "Unrecoverable (A): A holds N only sealed inside terms it cannot open"),
    "sealed-data": (
        SEALED_DATA, ("model", "--role", "A"), None, 3,
        "Unrecoverable (A): A holds D only sealed inside terms it cannot open"),
    "role-name-in-hash": (
        HASHED_ROLE, ("model", "--format", "json"), None, 3,
        "Unrecoverable (A): A holds B only sealed inside terms it cannot open"),
    "non-finite-eval": (
        read(X509_ORIGINAL), ("eval", "--role", "A", "--config", "{cfg}"),
        _overflowing_config(), 4,
        "ConfigError: {cfg}: cost does not evaluate to a finite number"),
    "bad-config": (
        read(X509_ORIGINAL), ("eval", "--role", "A", "--config", "{cfg}"), '{"sizes": {}}', 4,
        "ConfigError: missing key 'funcs' in config"),
}


@pytest.mark.parametrize("case", FAILURES)
def test_each_cause_has_its_exit_code_and_line(tmp_path, case):
    protocol, argv, config, code, line = FAILURES[case]
    spec, cfg = tmp_path / "p.spa", tmp_path / "cfg.json"
    if isinstance(protocol, bytes):
        spec.write_bytes(protocol)
    else:
        spec.write_text(protocol, encoding="utf-8")
    if config is not None:
        cfg.write_text(config, encoding="utf-8")
    command, *options = (arg.format(cfg=cfg) for arg in argv)
    want = (code, "", line.format(spec=spec, cfg=cfg) + "\n")
    assert run_cli(command, str(spec), *options) == want


def test_each_error_class_fixes_one_exit_code():
    codes = {}
    stack = list(spa.errors.SpaError.__subclasses__())
    while stack:
        cls = stack.pop()
        codes[cls.__name__] = cls.code
        stack += cls.__subclasses__()
    parse_errors = ("ParseError", "UndeclaredIdentifier", "DuplicateDeclaration",
                    "SelfMessage", "KindMismatch")
    assert codes == {**dict.fromkeys(parse_errors, 2), "Ungeneratable": 2, "UnknownRole": 2,
                     "Unrecoverable": 3, "ShapeViolation": 3, "ConfigError": 4}


def test_cost_requires_role():
    code, out, err = run_cli("cost", KEY_WRAP)
    assert (code, out) == (2, "")
    assert "the following arguments are required: --role" in err


def test_import_does_not_build_parser():
    probe = "import spa.cli; print(spa.cli._parser.cache_info().misses)"
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT / "src",
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "0\n"


def test_import_leaves_out_dataclasses_inspect_and_typing():
    # -S: no site hook (an editable install's .pth file, say) imports them
    # first; loading a config reads every record type it builds
    probe = (
        "import sys, spa, spa.cli; spa.load_config(sys.argv[1]); "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe, DEFAULT_CONFIG], cwd=ROOT / "src",
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"


_COUNT_COMPILES = """\
import builtins, contextlib, io, sys
compile = builtins.compile; names = []
def counted(source, filename, *args, **kwargs):
    names.append(filename)
    return compile(source, filename, *args, **kwargs)
builtins.compile = counted
import spa, spa.cli
from spa.terms import _TABLES
def compiled():
    # compiles so far, the classes whose constructor is compiled, and their
    # shapes: one code per shape, whatever the field names and classes
    codes = [c.__new__.__code__ for c in _TABLES]
    built = [k for k in codes if k.co_filename == "<hash-consed>"]
    return names.count("<hash-consed>"), len(built), len({(k.co_code, k.co_consts) for k in built})
"""


def _compiles(then: str, *argv: str) -> list:
    """What `compiled()` returns after each `print(*compiled())` in `then`,
    run in a fresh interpreter after `import spa, spa.cli`."""
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-c", _COUNT_COMPILES + then, *argv], cwd=ROOT,
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    return [tuple(map(int, line.split())) for line in out.splitlines()]


def test_import_compiles_one_constructor_per_contract_shape():
    # a class's constructor is compiled on its first construction, and
    # classes whose fields have contracts of one shape share one compile
    setup, every = _compiles(
        "spa.load_config(sys.argv[1]); print(*compiled())\n"
        "from tests.test_terms import _CTOR_FIELDS\n"
        "assert set(_CTOR_FIELDS) == set(_TABLES)\n"
        "for cls, fields in _CTOR_FIELDS.items(): cls(*fields)\n"
        "print(*compiled(), len(_TABLES))\n",
        DEFAULT_CONFIG,
    )
    (compiles, _, shapes), (compiles_all, built_all, shapes_all, classes) = setup, every
    assert compiles == shapes < shapes_all  # import and the config build some
    assert compiles_all == shapes_all < built_all == classes
    [(compiles, _, shapes)] = _compiles(
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert spa.cli.main(['check', sys.argv[1]]) == 0\n"
        "print(*compiled())\n",
        ANDREW,
    )
    assert compiles == shapes < shapes_all


def test_unencodable_output_is_one_io_error_line():
    # strands render with angle brackets, which ASCII cannot encode; UTF-8
    # output is the bytes the CLI writes in process
    argv = [sys.executable, "-m", "spa.cli", "model", KEY_WRAP]
    code, out, _ = run_cli(*argv[3:])
    assert code == 0
    cases = {
        "ascii": (1, b"", b"IOError: the output cannot be encoded as ascii\n"),
        "utf-8": (0, out.encode(), b""),
    }
    for encoding, want in cases.items():
        env = {**os.environ, "PYTHONIOENCODING": encoding}
        got = subprocess.run(argv, cwd=ROOT / "src", env=env, capture_output=True)
        assert (got.returncode, got.stdout, got.stderr) == want


def test_raw_and_simplified_exclusive():
    code, out, err = run_cli("cost", KEY_WRAP, "--role", "B", "--raw", "--simplified")
    assert (code, out) == (2, "")
    assert "argument --simplified: not allowed with argument --raw" in err


def nested_protocol(shape, depth):
    """A protocol whose one payload nests `depth` levels deep."""
    if shape == "wide":
        payload = ", ".join(["N"] * (depth + 1))
    else:
        payload = "N"
        wrap = {"h": "h({})", "sk": "{{{}}}sk(K)", "pairs": "({}, N, M)"}[shape]
        for _ in range(depth // 2 if shape == "pairs" else depth):
            payload = wrap.format(payload)
    return (
        "protocol deep { roles A, B; nonce N, M; key K; "
        f"knows A: B, K, N, M; knows B: A, K; A -> B: {payload}; }}"
    )


@pytest.mark.parametrize("shape", ["h", "sk", "pairs", "wide"])
def test_nesting_cap(tmp_path, shape):
    """Every command accepts a term at the cap and refuses one past it,
    using fewer than 900 frames above its caller, so that Python's default
    recursion limit of 1000 leaves room for a caller's own frames."""
    ok = write(tmp_path, nested_protocol(shape, 256), "ok.spa")
    runs = [("check", ok), ("model", ok), ("model", ok, "--format", "json"),
            ("model", ok, "--format", "dot"), ("model", ok, "--role", "A", "--format", "dot"),
            ("cost", ok, "--role", "A", "--raw"), ("cost", ok, "--role", "A", "--simplified"),
            ("compare", ok, ok), ("compare", ok, ok, "--trace", "--config", DEFAULT_CONFIG),
            ("eval", ok, "--role", "A", "--config", DEFAULT_CONFIG)]
    deep = write(tmp_path, nested_protocol(shape, 258), "deep.spa")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 900)
    try:
        for argv in runs:
            code, _, err = run_cli(*argv)
            assert (code, err) == (0, ""), argv
        for argv in (("check", deep), ("cost", deep, "--role", "A"), ("model", deep)):
            code, out, err = run_cli(*argv)
            assert code == 2 and out == ""
            assert "ParseError: term nests more than 256 levels deep (line 1, column" in err
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("argv", [
    ("check",),
    ("model", "--format", "dot"),
    ("cost", "--role", "A"),
    ("eval", "--role", "A", "--config", DEFAULT_CONFIG),
    ("compare", ANDREW),
], ids=lambda argv: argv[0])
def test_non_utf8_protocol_is_validation_error(tmp_path, argv):
    path = tmp_path / "latin1.spa"
    path.write_bytes(b"// caf\xe9\nprotocol p { roles A, B; nonce N; A -> B: N; }\n")
    code, out, err = run_cli(argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"ParseError: {path} is not UTF-8 text (invalid continuation byte at byte 6)\n"


def test_non_utf8_config_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(Path(DEFAULT_CONFIG).read_bytes().replace(b'"m"', b'"\xb5"'))
    for argv in (
        ("eval", X509_ORIGINAL, "--role", "A", "--config", str(cfg)),
        ("compare", X509_ORIGINAL, X509_MODIFIED, "--config", str(cfg)),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (4, "")
        assert err.startswith(f"ConfigError: {cfg}: 'utf-8' codec can't decode byte 0xb5")
        assert err.count("\n") == 1


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: Path(p).stem)
def test_byte_order_mark_is_read_past(tmp_path, path):
    # a UTF-8 file may start with a byte-order mark; it is not text
    spec, cfg = tmp_path / "bom.spa", tmp_path / "bom.json"
    spec.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    cfg.write_bytes(b"\xef\xbb\xbf" + Path(DEFAULT_CONFIG).read_bytes())
    role = parse(read(path)).roles[0].label

    def calls(spec_path, cfg_path):
        spec_path, cfg_path = str(spec_path), str(cfg_path)
        return [run_cli("check", spec_path), run_cli("cost", spec_path, "--role", role),
                run_cli("eval", spec_path, "--role", role, "--config", cfg_path)]

    want = calls(path, DEFAULT_CONFIG)
    assert [code for code, _, _ in want] == [0, 0, 0]
    for spec_path, cfg_path in ((spec, DEFAULT_CONFIG), (path, cfg), (spec, cfg)):
        assert calls(spec_path, cfg_path) == want


def test_byte_order_mark_keeps_byte_offsets(tmp_path):
    # a byte that is not UTF-8 is reported at its offset in the file, the
    # mark counted
    spec, cfg = tmp_path / "bom.spa", tmp_path / "bom.json"
    spec.write_bytes(b"\xef\xbb\xbf// caf\xe9\nprotocol p { roles A, B; nonce N; A -> B: N; }\n")
    code, out, err = run_cli("check", str(spec))
    assert (code, out) == (2, "")
    assert err == f"ParseError: {spec} is not UTF-8 text (invalid continuation byte at byte 9)\n"
    text = b"\xef\xbb\xbf" + Path(DEFAULT_CONFIG).read_bytes().replace(b'"m"', b'"\xb5"')
    cfg.write_bytes(text)
    offset = text.index(b"\xb5")
    code, out, err = run_cli("eval", X509_ORIGINAL, "--role", "A", "--config", str(cfg))
    assert (code, out) == (4, "")
    assert f"can't decode byte 0xb5 in position {offset}:" in err


def test_non_finite_config_is_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    text = Path(DEFAULT_CONFIG).read_text(encoding="utf-8")
    cfg.write_text(
        text.replace('"lambda_c": 0.1', '"lambda_c": NaN').replace('"n": 16', '"n": Infinity'),
        encoding="utf-8",
    )
    for argv in (
        ("eval", X509_ORIGINAL, "--role", "A", "--config", str(cfg)),
        ("compare", X509_ORIGINAL, X509_MODIFIED, "--config", str(cfg)),
    ):
        assert run_cli(*argv) == (4, "", "ConfigError: sizes.n must be finite\n")


@pytest.mark.parametrize("old, new, message", [
    ('"lambda_c": 0.1,', '"lambda_c": 0.1, "lambda_c": 1e6,', "{cfg}: duplicate key 'lambda_c'"),
    ('"max_bytes": 4096', '"max_bytes": 0', "max_bytes must be finite and positive"),
], ids=["duplicate-key", "max-bytes"])
def test_ill_formed_config_is_config_error(tmp_path, old, new, message):
    cfg = tmp_path / "cfg.json"
    text = Path(DEFAULT_CONFIG).read_text(encoding="utf-8")
    assert old in text
    cfg.write_text(text.replace(old, new), encoding="utf-8")
    for argv in (
        ("eval", X509_ORIGINAL, "--role", "A", "--config", str(cfg)),
        ("compare", X509_ORIGINAL, X509_MODIFIED, "--config", str(cfg)),
    ):
        assert run_cli(*argv) == (4, "", f"ConfigError: {message.format(cfg=cfg)}\n")


@pytest.mark.parametrize(
    "change",
    [
        # S_asym's block count is too large to be an integer
        {"s_asym": {"blk_in": 2e-300, "blk_out": 128, "pad": 1e-300}, "sizes": {"m": 1e10}},
        # every value is finite, but their sums are not
        {"sizes": {"r": 1e308, "n": 1e308}},
    ],
)
def test_cost_overflowing_a_float_is_config_error(tmp_path, change):
    data = json.loads(Path(DEFAULT_CONFIG).read_text(encoding="utf-8"))
    for key, value in change.items():
        data[key].update(value)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data), encoding="utf-8")
    for argv in (
        ("eval", X509_ORIGINAL, "--role", "A", "--config", str(cfg)),
        ("compare", X509_ORIGINAL, X509_MODIFIED, "--config", str(cfg)),
    ):
        assert run_cli(*argv) == (
            4, "", f"ConfigError: {cfg}: cost does not evaluate to a finite number\n",
        )
