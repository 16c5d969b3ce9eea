#!/usr/bin/env python3
"""Self-test for the tools/analyze static analyzer.

Registered in ctest as `lint_fixtures`. Four stages:

  1. Tokenizer regressions: the char-literal/raw-string bugs the old
     strip_comments scanner had, digit separators, include capture.
  2. Fixture sweep: run the analyzer over tests/lint_fixtures (a
     miniature repo root) and require the findings to EXACTLY equal
     the `// expect(<rule>)` markers in the fixtures -- every rule
     fires on its marked line and nowhere else, and the
     `// lint:allow(<rule>)` suppression holds; then the file scope
     of the profile-observer rule and of the nondeterminism rule's
     environment reads on scratch trees.
  3. Output formats: --json and --sarif must carry the same findings
     in the documented shapes.
  4. Real tree: tools/lint.py on this checkout must exit 0.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
FIXTURES = os.path.join(REPO, "tests", "lint_fixtures")
LINT = os.path.join(HERE, "lint.py")

sys.path.insert(0, HERE)
from analyze import Analyzer, RULES  # noqa: E402
from analyze import rules as _rules  # noqa: E402,F401
from analyze import tokens as tok  # noqa: E402

EXPECT_RE = re.compile(r"//\s*expect\(([a-z-]+)\)")

failures = []


def check(cond, what):
    tag = "ok  " if cond else "FAIL"
    print("%s %s" % (tag, what))
    if not cond:
        failures.append(what)


# ------------------------------------------------------------- #
# 1. Tokenizer regressions.
# ------------------------------------------------------------- #

def tokenizer_checks():
    # Char literal holding a quote must not open a phantom string:
    # the rand() after it has to survive into the code view.
    text = "if (c == '\"') call(rand());\n"
    clean = tok.code_view(text)
    check("rand" in clean,
          "tokenizer: code after a '\"' char literal stays visible")
    check(len(clean) == len(text),
          "tokenizer: code_view is byte-aligned")

    # Raw string contents must be blanked even when they contain a
    # plain `)"` sequence.
    text = 'auto s = R"(rand() is "banned")";\ncall(rand());\n'
    clean = tok.code_view(text)
    check(clean.count("rand") == 1,
          "tokenizer: raw string contents blanked, code after kept")

    # Delimited raw string.
    toks = tok.tokenize('R"x(a)" still inside)x" done')
    strs = [t for t in toks if t.kind == "str"]
    check(len(strs) == 1 and strs[0].text.endswith(')x"'),
          "tokenizer: delimited raw string R\"x(...)x\" is one token")

    # Digit separators never open a char literal.
    toks = tok.tokenize("int n = 1'000'000;")
    kinds = [(t.kind, t.text) for t in toks]
    check(("num", "1'000'000") in kinds,
          "tokenizer: digit separators lex as one number")

    # Include targets are captured and survive the code view.
    text = '#include <chrono>\n#include "gpu/gpu.hh"\n'
    toks = tok.tokenize(text)
    targets = [t.text for t in toks if t.kind == "include"]
    check(targets == ["<chrono>", '"gpu/gpu.hh"'],
          "tokenizer: include targets captured")
    check("<chrono>" in tok.code_view(text, toks),
          "tokenizer: include target survives code_view")

    # Comments vanish from the code view.
    clean = tok.code_view("x(); // rand()\n/* time(NULL) */ y();\n")
    check("rand" not in clean and "time" not in clean
          and "y()" in clean,
          "tokenizer: comment bodies blanked")


# ------------------------------------------------------------- #
# 2. Fixture sweep: findings == expect() markers, exactly.
# ------------------------------------------------------------- #

def expected_findings():
    expected = set()
    for dirpath, _, names in os.walk(FIXTURES):
        for name in sorted(names):
            if not name.endswith((".cc", ".hh")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, FIXTURES)
            with open(path, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, 1):
                    for match in EXPECT_RE.finditer(line):
                        expected.add((rel, lineno, match.group(1)))
    return expected


def fixture_checks():
    expected = expected_findings()
    all_rules = {name for name, _doc, _fn in RULES}
    check(all_rules == {r for _f, _l, r in expected},
          "fixtures: every registered rule has a fixture marker")

    analyzer = Analyzer(FIXTURES)
    status = analyzer.run()
    actual = {(f.rel, f.line, f.rule) for f in analyzer.findings}

    for missing in sorted(expected - actual):
        print("     missing: %s:%d [%s]" % missing)
    for extra in sorted(actual - expected):
        print("     extra:   %s:%d [%s]" % extra)
    check(actual == expected,
          "fixtures: findings exactly match expect() markers")
    check(status == len({r for _f, _l, r in expected}),
          "fixtures: exit status is the failed-rule-class count")
    check(len(analyzer.findings) == len(expected),
          "fixtures: no duplicate findings")


def profile_observer_checks():
    # The same read is exempt in stat_bindings.cc and flagged in the
    # RT model; src/lumibench is outside the rule's scope.
    with tempfile.TemporaryDirectory() as tmp:
        for rel in ("src/gpu/stat_bindings.cc", "src/rt/unit.cc",
                    "src/lumibench/query.cc"):
            os.makedirs(os.path.join(tmp, os.path.dirname(rel)))
            with open(os.path.join(tmp, rel), "w") as handle:
                handle.write("f();\nreturn gpu.profile().rt(0).sum();\n")
        analyzer = Analyzer(tmp)
        analyzer.run(only={"profile-observer"})
        got = {(f.rel, f.line) for f in analyzer.findings}
    check(got == {(os.path.join("src", "rt", "unit.cc"), 2)},
          "profile-observer: stat_bindings.cc exempt, src/rt flagged")


def env_knob_checks():
    # An environment read is a timing input in the model, and fine in
    # the CLI and bench front ends that turn it into a GpuConfig.
    with tempfile.TemporaryDirectory() as tmp:
        for rel in ("src/gpu/gpu.cc", "src/rt/unit.cc",
                    "src/lumibench/runner.cc"):
            os.makedirs(os.path.join(tmp, os.path.dirname(rel)))
            with open(os.path.join(tmp, rel), "w") as handle:
                handle.write("f();\nauto *v = std::getenv(\"X\");\n"
                             "auto *w = getenv(\"Y\");"
                             " // lint:allow(nondeterminism)\n")
        analyzer = Analyzer(tmp)
        analyzer.run(only={"nondeterminism"})
        got = {(f.rel, f.line) for f in analyzer.findings}
    check(got == {(os.path.join("src", "gpu", "gpu.cc"), 2),
                  (os.path.join("src", "rt", "unit.cc"), 2)},
          "nondeterminism: getenv flagged in src/gpu and src/rt only")


# ------------------------------------------------------------- #
# 3. Output formats (through the real CLI).
# ------------------------------------------------------------- #

def output_checks():
    with tempfile.TemporaryDirectory() as tmp:
        sarif_path = os.path.join(tmp, "lint.sarif")
        proc = subprocess.run(
            [sys.executable, LINT, "--root", FIXTURES, "--json",
             "--sarif", sarif_path],
            capture_output=True, text=True)
        expected = expected_findings()
        check(proc.returncode == len({r for _f, _l, r in expected}),
              "cli: --json run exit status matches fixture rules")

        doc = json.loads(proc.stdout)
        got = {(f["file"], f["line"], f["rule"])
               for f in doc["findings"]}
        check(got == expected, "cli: --json findings match markers")
        check(set(doc["failed_rules"]) ==
              {r for _f, _l, r in expected},
              "cli: --json failed_rules complete")

        with open(sarif_path, encoding="utf-8") as handle:
            sarif = json.load(handle)
        check(sarif["version"] == "2.1.0", "sarif: version 2.1.0")
        run = sarif["runs"][0]
        check(run["tool"]["driver"]["name"] == "lumibench-lint",
              "sarif: driver name")
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        check(rule_ids == {name for name, _d, _f in RULES},
              "sarif: every rule described")
        got = set()
        for result in run["results"]:
            loc = result["locations"][0]["physicalLocation"]
            got.add((loc["artifactLocation"]["uri"],
                     loc["region"]["startLine"], result["ruleId"]))
        check(got == {(f.replace(os.sep, "/"), l, r)
                      for f, l, r in expected},
              "sarif: results match markers")

    proc = subprocess.run([sys.executable, LINT, "--list-rules"],
                          capture_output=True, text=True)
    check(proc.returncode == 0 and "lock-discipline" in proc.stdout,
          "cli: --list-rules")


# ------------------------------------------------------------- #
# 4. The real tree is clean.
# ------------------------------------------------------------- #

def real_tree_check():
    proc = subprocess.run([sys.executable, LINT, "--root", REPO],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
    check(proc.returncode == 0,
          "real tree: tools/lint.py exits 0 on this checkout")


def main():
    tokenizer_checks()
    fixture_checks()
    profile_observer_checks()
    env_knob_checks()
    output_checks()
    real_tree_check()
    if failures:
        print("\n%d check(s) FAILED" % len(failures))
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
