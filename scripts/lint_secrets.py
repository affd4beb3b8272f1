#!/usr/bin/env python3
"""Repo-aware secret-hygiene linter for the SIES codebase.

Machine-checks the paper's secret-handling obligations (one-time keys
K_t / k_{i,t} and shares ss_{i,t} must stay secret and be compared
without leaking timing) across src/. Three rules:

  ct-compare   Verification material (MACs, digests, share sums, SEAL
               residues, certs) must be compared with a ConstantTimeEqual
               variant, never with ==/!= or memcmp: both leak the first
               differing byte/limb through timing.

  secret-log   Key-material identifiers (global/source keys, k_i, K_t,
               ss_*, seeds, derived MAC keys, DRBG state, key schedules
               -- crypto::PrfKey, whose chaining values are
               key-equivalent) must not flow into logging or telemetry
               sinks (SIES_LOG streams, the
               AuditTrail, ToHex inside a sink expression). The audit
               trail records WHY verification failed, never WITH WHAT
               key.

  zeroize      A named buffer initialized from a key-derivation call
               (HmacSha*/EpochPrf*/DeriveMacKey/HmacDrbg::Generate) is
               key material: it must be owned by crypto::SecureBytes or
               explicitly wiped (SecureWipe/SecureZero/.Wipe()) in the
               same file before it can be flagged clean. The
               output-buffer derivations (the heap-free PRFs
               HmacSha*Into / EpochPrfSha*Into, raw-key or
               schedule-keyed, their pinned-body forms HmacSha*With, the
               batches HmacSha256Batch / EpochPrfSha256Batch /
               PrfSha256Batch / EpochPrfSha1Batch and their forced hooks
               PrfSha256BatchWith / EpochPrfSha1BatchWith, and the
               SHA-NI lane kernels HmacShaNi / EpochHmacShaNi) are
               covered too: a locally declared buffer passed as their
               output must be
               SecureZero'd in the same file — a stack digest is a
               derived key, and batch staging arrays hold many keys'
               worth at once. So is every HMAC pad: a local
               array filled with key bytes XOR ipad/opad (0x36 / 0x5c)
               in a PRF helper must be wiped before the frame dies.

Escape hatch: a finding on line N is suppressed when line N or N-1
carries `// lint:allow(<rule>)` -- use only with a justifying comment,
reviewed like any other code (policy: docs/DEVELOPING.md).

Usage:
  scripts/lint_secrets.py [paths...]   # default: src/ bench/ examples/
  scripts/lint_secrets.py --self-test  # fixture corpus must behave
Exit status: 0 = clean, 1 = findings, 2 = usage/self-test failure.
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(REPO_ROOT, "tests", "security", "lint_fixtures")

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# Identifiers whose comparison is a verification verdict: comparing them
# non-constant-time leaks where the mismatch happened.
CT_OPERAND_RE = re.compile(
    r"(^|[^\w])("
    r"\w*mac\b|\w*digest\w*|\w*checksum\w*|\w*_cert\b|cert\b|"
    r"\w*residue\w*|share_sum\w*|\w*_tag\b|tag\b|signature\w*"
    r")($|[^\w(])"
)
# Enum constants / type names that contain the words above but are not
# secret values (kHmacSha1, SharePrf::..., AuditKind::...).
CT_FALSE_POSITIVE_RE = re.compile(r"\bk[A-Z]\w*|::k[A-Z]\w*|SharePrf|AuditKind")

# Key-material identifiers that must never reach a log/telemetry sink.
SECRET_ID_RE = re.compile(
    r"(^|[^\w])("
    r"\w*_key\b|key_\w*|\bkey\b|global_key\w*|source_key\w*|mac_key\w*|"
    r"chain_key\w*|seed_key\w*|\w*secret\w*|\bseed\w*|master_seed\w*|"
    r"k_i\w*|K_t\w*|ss_\w*|\bshares?\b|share_sum\w*|\w*drbg\w*|"
    r"inflation_key\w*|PrfKey\w*|\w*prf_keys?\b|\bschedules?\b"
    r")($|[^\w])"
)
SECRET_FALSE_POSITIVE_RE = re.compile(
    r"\bk[A-Z]\w*|::k[A-Z]\w*|SharePrf|AuditKind|KeyDisclosure|"
    r"EpochKeyCache|keygen|key_cache|\bKeys?For\w*|QuerierKeys|SourceKeys"
)

# Sinks: expressions whose arguments end up on stderr / in exported JSON.
# ScopedSpan and Tracer::RecordElapsed are sinks because span names/labels
# land verbatim in the exported Chrome trace — spans may carry phase names
# and epochs, never key bytes.
SINK_START_RE = re.compile(
    r"SIES_LOG\s*\(|\.Record(?:Elapsed)?\s*\(|\bLogLine\s*\(|std::cerr|"
    r"std::cout|\bScopedSpan\s+\w+\s*\("
)

# Key-derivation calls whose result IS key material.
DERIVATION_RE = re.compile(
    r"\b(HmacSha1|HmacSha256|EpochPrfSha1|EpochPrfSha256|DeriveMacKey|"
    r"DeriveTemporalSeed|HmacSha256Batch|EpochPrfSha256Batch|"
    r"PrfSha256Batch|PrfSha256BatchWith|EpochPrfSha1Batch)\s*\(|"
    r"\b\w+\.Generate\s*\("
)

# Output-buffer derivations (heap-free PRFs and batch kernels): the final
# argument receives the digests (one derived key per call or lane). A
# local staging buffer passed there must be wiped in the same file.
BATCH_DERIVATION_RE = re.compile(
    r"\b(HmacSha256Batch|EpochPrfSha256Batch|PrfSha256Batch|"
    r"PrfSha256BatchWith|EpochPrfSha1Batch|EpochPrfSha1BatchWith|"
    r"HmacShaNi|EpochHmacShaNi|"
    r"HmacSha1Into|HmacSha256Into|HmacSha1With|HmacSha256With|"
    r"EpochPrfSha1Into|EpochPrfSha256Into)\s*\("
)
# HMAC pad construction: key bytes XOR the ipad/opad constants, written
# either element-wise (`pad[j] = k[j] ^ 0x36`) or through a range-for
# (`for (uint8_t& b : pad) b ^= 0x36`).
PAD_CONST_RE = re.compile(r"\b0x(36|5[cC])\b")
PAD_TARGET_RES = (
    re.compile(r"for\s*\(\s*(?:uint8_t|auto)\s*&\s*\w+\s*:\s*(\w+)\s*\)"),
    re.compile(r"(\w+)\s*(?:\[[^\]]*\])+\s*\^?=(?!=)"),
)
# A type token followed by a parameter name only appears in declarations
# and definitions of the kernels themselves, never at call sites (where
# `ByteView(buf, n)` is a temporary, not a parameter) — used to skip
# prototypes.
TYPE_TOKEN_RE = re.compile(
    r"\b(?:const|ByteView|PrfKey|uint8_t|uint64_t|size_t)\b[\s*&]+\w+")
# A local declaration, not a parameter: arrays must end in `;`, `=` or an
# aggregate initializer (a `uint8_t out[32]` parameter ends in `,`/`)`).
LOCAL_BUF_FMT = (
    r"(uint8_t\s+{name}\s*(?:\[[^\]]*\])+\s*[;={{]|"
    r"std::array<[^;]*>\s+{name}\b|"
    r"Bytes\s+{name}\b|std::vector<uint8_t>\s+{name}\b)"
)
# `Bytes name = <derivation>(...)` declarations; the name decides whether
# the buffer is treated as key material (`expected` MACs recomputed for
# comparison are not: they equal a value already on the wire).
DECL_RE = re.compile(r"\bBytes\s+(\w+)\s*=\s*(.+)$")
SECRET_NAME_RE = re.compile(r"(key|seed|secret|share|prf|^k$|^kv$|^ss)", re.I)
WIPE_FMT = (
    r"(SecureWipe\s*\(\s*{name}\b|SecureZero\s*\(\s*{name}\b|"
    r"{name}\s*\.\s*Wipe\s*\(\))"
)

RULES = ("ct-compare", "secret-log", "zeroize")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving newlines and
    column positions so findings report real locations."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def allowed_lines(text):
    """line -> set of rules allowed on that line (the marker covers its
    own line and the next, so it can sit above the flagged statement)."""
    allows = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        m = ALLOW_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")}
            allows.setdefault(lineno, set()).update(rules)
            allows.setdefault(lineno + 1, set()).update(rules)
    return allows


def has_secret_operand(expr, operand_re, fp_re):
    cleaned = fp_re.sub(" ", expr)
    return operand_re.search(cleaned) is not None


def check_ct_compare(path, code_lines):
    findings = []
    for lineno, line in enumerate(code_lines, 1):
        if "memcmp" in line:
            findings.append(Finding(
                path, lineno, "ct-compare",
                "memcmp leaks the first differing byte through timing; "
                "use ConstantTimeEqual (or lint:allow(ct-compare) for "
                "public framing data)"))
            continue
        for m in re.finditer(r"[^=!<>]=="
                             r"|!=", line):
            # Operands: longest identifier-ish runs to the left and right.
            left = line[: m.start() + 1]
            right = line[m.end():]
            lm = re.search(r"([\w.:\]\)\->]+)\s*$", left)
            rm = re.match(r"\s*([\w.:\(\[\->]+)", right)
            operands = " ".join(g.group(1) for g in (lm, rm) if g)
            if has_secret_operand(operands, CT_OPERAND_RE,
                                  CT_FALSE_POSITIVE_RE):
                findings.append(Finding(
                    path, lineno, "ct-compare",
                    "==/!= over verification material exits at the first "
                    "difference; use ConstantTimeEqual"))
                break
    return findings


def sink_expressions(code_text):
    """Yields (start_line, expression_text) for every sink call, captured
    to the terminating ';' so multi-line streams are covered."""
    for m in SINK_START_RE.finditer(code_text):
        start_line = code_text.count("\n", 0, m.start()) + 1
        end = code_text.find(";", m.start())
        if end == -1:
            end = len(code_text)
        yield start_line, code_text[m.start():end]


def check_secret_log(path, code_text):
    findings = []
    for lineno, expr in sink_expressions(code_text):
        if has_secret_operand(expr, SECRET_ID_RE, SECRET_FALSE_POSITIVE_RE):
            findings.append(Finding(
                path, lineno, "secret-log",
                "key-material identifier flows into a log/telemetry sink; "
                "log sizes or verdicts, never key bytes"))
        elif "ToHex" in expr:
            findings.append(Finding(
                path, lineno, "secret-log",
                "hex-encoding inside a log/telemetry sink; confirm the "
                "buffer is public or lint:allow(secret-log) with a "
                "justification"))
    return findings


def check_zeroize(path, code_text, code_lines):
    findings = []
    for lineno, line in enumerate(code_lines, 1):
        decl = DECL_RE.search(line)
        if not decl:
            continue
        name, init = decl.group(1), decl.group(2)
        # Multi-line initializers: extend to the statement's ';'.
        if ";" not in init:
            rest = "\n".join(code_lines[lineno:lineno + 3])
            init = init + " " + rest.split(";")[0]
        if not DERIVATION_RE.search(init):
            continue
        if not SECRET_NAME_RE.search(name):
            continue
        wipe_re = re.compile(WIPE_FMT.format(name=re.escape(name)))
        if not wipe_re.search(code_text):
            findings.append(Finding(
                path, lineno, "zeroize",
                f"'{name}' holds key-derivation output but is never "
                f"wiped; wrap it in crypto::SecureBytes or call "
                f"SecureWipe before scope exit"))
    return findings


def check_zeroize_batch(path, code_text, code_lines):
    """A locally declared buffer receiving an output-buffer derivation's
    digests must be SecureZero'd in the same file. Prototypes/definitions
    (recognized by type tokens in the argument list), out-parameters
    declared elsewhere and buffers returned to the caller are the
    caller's responsibility and are skipped."""
    findings = []
    for lineno, line in enumerate(code_lines, 1):
        m = BATCH_DERIVATION_RE.search(line)
        if not m:
            continue
        # Capture the argument list to the statement's ';' so multi-line
        # calls are covered.
        rest = line[m.end():] + "\n" + "\n".join(
            code_lines[lineno:lineno + 4])
        args = rest.split(";")[0].rstrip().rstrip(")")
        if TYPE_TOKEN_RE.search(args):
            continue  # declaration or definition, not a call
        last = args.rsplit(",", 1)[-1]
        ident = re.search(r"([A-Za-z_]\w*)", last)
        if not ident:
            continue
        name = ident.group(1)
        local_re = re.compile(LOCAL_BUF_FMT.format(name=re.escape(name)))
        if not local_re.search(code_text):
            continue  # out-param or member owned by the caller
        if re.search(r"\breturn\s+" + re.escape(name) + r"\s*;", code_text):
            continue  # handed to the caller, who owns the wipe
        wipe_re = re.compile(WIPE_FMT.format(name=re.escape(name)))
        if not wipe_re.search(code_text):
            findings.append(Finding(
                path, lineno, "zeroize",
                f"'{name}' receives derived key digests but is never "
                f"wiped; SecureZero it after the derived keys are "
                f"consumed"))
    return findings


def check_zeroize_pads(path, code_text, code_lines):
    """A local array built as key XOR ipad/opad (an HMAC pad block, i.e.
    the key itself under a fixed mask) must be SecureZero'd in the same
    file; out-parameters are the caller's responsibility."""
    findings = []
    for lineno, line in enumerate(code_lines, 1):
        if not PAD_CONST_RE.search(line):
            continue
        for target_re in PAD_TARGET_RES:
            m = target_re.search(line)
            if m:
                break
        if not m:
            continue
        name = m.group(1)
        local_re = re.compile(LOCAL_BUF_FMT.format(name=re.escape(name)))
        if not local_re.search(code_text):
            continue
        wipe_re = re.compile(WIPE_FMT.format(name=re.escape(name)))
        if not wipe_re.search(code_text):
            findings.append(Finding(
                path, lineno, "zeroize",
                f"'{name}' is an HMAC pad (key XOR ipad/opad) but is never "
                f"wiped; SecureZero it before the PRF helper returns"))
    return findings


def lint_file(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    allows = allowed_lines(text)
    code_text = strip_comments_and_strings(text)
    code_lines = code_text.splitlines()

    findings = []
    findings += check_ct_compare(path, code_lines)
    findings += check_secret_log(path, code_text)
    findings += check_zeroize(path, code_text, code_lines)
    findings += check_zeroize_batch(path, code_text, code_lines)
    findings += check_zeroize_pads(path, code_text, code_lines)
    return [f for f in findings if f.rule not in allows.get(f.line, set())]


def lint_paths(paths):
    findings = []
    for root in paths:
        if os.path.isfile(root):
            findings += lint_file(root)
            continue
        for dirpath, _, filenames in os.walk(root):
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                    findings += lint_file(os.path.join(dirpath, name))
    return findings


def self_test():
    """The fixture corpus pins the linter itself: every bad_<rule>_*.cc
    must trip exactly its rule, good_*.cc must be clean."""
    failures = []
    fixtures = sorted(os.listdir(FIXTURE_DIR))
    if not fixtures:
        print("self-test: no fixtures found", file=sys.stderr)
        return 2
    for name in fixtures:
        path = os.path.join(FIXTURE_DIR, name)
        if not name.endswith(".cc"):
            continue
        findings = lint_file(path)
        rules_hit = {f.rule for f in findings}
        if name.startswith("bad_"):
            expected = name[len("bad_"):].split(".")[0]
            expected = expected.rsplit("_", 0)[0].replace("_", "-")
            # bad_ct_compare_memcmp.cc -> ct-compare (longest rule prefix)
            matched = [r for r in RULES if expected.startswith(r)]
            if not matched:
                failures.append(f"{name}: cannot map to a rule")
                continue
            rule = matched[0]
            if rule not in rules_hit:
                failures.append(
                    f"{name}: expected a {rule} finding, got {rules_hit}")
        elif name.startswith("good_"):
            if findings:
                failures.append(
                    f"{name}: expected clean, got "
                    + "; ".join(str(f) for f in findings))
    for failure in failures:
        print(f"self-test FAILED: {failure}", file=sys.stderr)
    if not failures:
        count = len([n for n in fixtures if n.endswith('.cc')])
        print(f"lint_secrets self-test OK ({count} fixtures)")
    return 2 if failures else 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    # Default roots: everything that handles key material. bench/ and
    # examples/ copy src/ idioms (timing loops over keys, demo logging),
    # so they inherit the same hygiene rules.
    paths = [a for a in argv if not a.startswith("-")] or [
        os.path.join(REPO_ROOT, root) for root in ("src", "bench", "examples")
    ]
    findings = lint_paths(paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_secrets: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_secrets: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
