"""The simulator-specific rules.

Seven rules ported from the regex engine (same names, same
semantics, now running over the tokenizer's literal-safe view), the
hot-path-container rule guarding the event loop's data layout, the
bvh-order rule keeping the BVH builder's permutation explicit, the
profile-observer rule keeping the cycle account out of timing, plus
two whole-program rules:

  layering         enforce the #include dependency matrix between
                   src/ subsystems;
  lock-discipline  every field named in a LUMI_GUARDED_BY must only
                   be touched inside a scope that acquired that
                   mutex -- the GCC-side twin of clang
                   -Wthread-safety.
"""

import os
import re

from .engine import rule

# --------------------------------------------------------------- #
# Shared scan sets (same meaning as the old regex engine).
# --------------------------------------------------------------- #

#: Directories making up the deterministic timing model.
MODEL_DIRS = ("src/gpu", "src/rt", "src/bvh", "src/check")
#: Code that serializes output: reports, traces, stats, metrics.
EMIT_DIRS = ("src/trace", "src/lumibench", "src/metrics",
             "src/analysis", "src/campaign")
EMIT_FILES = ("src/gpu/stat_bindings.cc",)

NONDET_PATTERNS = [
    (re.compile(r"\b(?:std::)?s?rand(?:_r)?\s*\("), "rand()"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::(?:mt19937|minstd_rand|default_random_engine)"
                r"(?:_64)?\b"),
     "unseeded-by-convention std random engine"),
    (re.compile(r"(?<![\w.:])time\s*\(\s*(?:NULL|nullptr|0|&)"),
     "time()"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"\bstd::chrono::(?:system|steady|high_resolution)"
                r"_clock\b"),
     "std::chrono clock"),
    (re.compile(r"\b(?:secure_)?getenv\s*\("),
     "getenv() (an environment knob)"),
]

STAT_STRUCTS = [
    # (header, struct name, registration function in stat_bindings.cc)
    ("src/gpu/stats.hh", "GpuStats", "registerGpuStats"),
    ("src/gpu/cache.hh", "CacheStats", "registerCacheStats"),
    ("src/gpu/dram.hh", "DramStats", "registerDramStats"),
    ("src/gpu/mem_system.hh", "RequesterStats",
     "registerRequesterStats"),
    ("src/gpu/mem_request.hh", "MemSystemStats",
     "registerMemSystemStats"),
    ("src/gpu/profile.hh", "SmCycleBuckets",
     "registerCycleBuckets"),
    ("src/gpu/profile.hh", "RtCycleBuckets",
     "registerCycleBuckets"),
]

FIELD_RE = re.compile(
    r"^\s*uint64_t\s+(\w+)\s*(?:\[[^\]]*\])?\s*=\s*(?:0|\{\})\s*;")

UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set)\s*<[^;{}]*?>>?\s+(\w+)\s*[;={]")


# --------------------------------------------------------------- #
# The seven ported rules.
# --------------------------------------------------------------- #

@rule("nondeterminism",
      "No wall-clock, libc/std randomness or environment read inside "
      "the timing model (src/gpu, src/rt, src/bvh, src/check); "
      "entropy comes from a seeded lumi::Rng and knobs from GpuConfig "
      "so cycle counts stay bit-identical.")
def check_nondeterminism(ctx, report):
    for path in ctx.source_files(MODEL_DIRS):
        src = ctx.file(path)
        for lineno, line in enumerate(src.clean_lines, 1):
            for pattern, what in NONDET_PATTERNS:
                if pattern.search(line):
                    report(path, lineno,
                           "%s in the timing model; cycle counts "
                           "must depend only on the inputs (use a "
                           "seeded lumi::Rng or a GpuConfig field)"
                           % what)


@rule("unordered-iter",
      "No range-for iteration over unordered containers in code that "
      "emits reports, traces or stats: hash order is byte-unstable "
      "across libstdc++ versions and ASLR.")
def check_unordered_iteration(ctx, report):
    # Pass 1: every identifier declared anywhere in src/ with an
    # unordered container type.
    names = set()
    for path in ctx.source_files(("src",)):
        for match in UNORDERED_DECL_RE.finditer(ctx.file(path).clean):
            names.add(match.group(1))
    # Pass 2: flag range-for over those identifiers (or over an
    # expression that is textually unordered) in emitting code.
    range_for = re.compile(r"for\s*\([^;()]*?:\s*([^)]*)\)")
    for path in ctx.source_files(EMIT_DIRS, EMIT_FILES):
        src = ctx.file(path)
        for lineno, line in enumerate(src.clean_lines, 1):
            match = range_for.search(line)
            if not match:
                continue
            expr = match.group(1)
            ident = re.findall(r"(\w+)\s*(?:\(\s*\))?\s*$", expr)
            hash_ordered = "unordered" in expr or (
                ident and ident[0] in names)
            if hash_ordered:
                report(path, lineno,
                       "iterating '%s' (hash order) while emitting "
                       "output; order must be deterministic" %
                       expr.strip())


def _struct_fields(text, struct_name):
    """uint64_t counter fields of @p struct_name (zero-initialized),
    scanning @p text (a comment-blanked code view)."""
    match = re.search(r"struct\s+%s\b" % struct_name, text)
    if not match:
        return None
    body_start = text.find("{", match.end())
    if body_start < 0:
        return None
    depth = 0
    i = body_start
    while i < len(text):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                break
        i += 1
    body = text[body_start:i]
    # Only top-level members: strip nested function bodies so locals
    # like `uint64_t denom = ...` are not mistaken for counters.
    top = []
    depth = 0
    for ch in body[1:]:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif depth == 0:
            top.append(ch)
    fields = []
    for line in "".join(top).splitlines():
        m = FIELD_RE.match(line)
        if m:
            fields.append(m.group(1))
    return fields


@rule("stat-coverage",
      "Every uint64_t counter field declared in the stats structs "
      "must be registered by address in src/gpu/stat_bindings.cc, so "
      "run reports can never silently drop a counter.")
def check_stat_coverage(ctx, report):
    bindings_rel = "src/gpu/stat_bindings.cc"
    if not ctx.exists(bindings_rel):
        return
    bindings_path = os.path.join(ctx.root, bindings_rel)
    registered = set(
        re.findall(r"&s->(\w+)", ctx.file(bindings_path).clean))
    for rel, struct, func in STAT_STRUCTS:
        if not ctx.exists(rel):
            continue
        header = os.path.join(ctx.root, rel)
        fields = _struct_fields(ctx.file(header).clean, struct)
        if fields is None:
            report(header, 1, "struct %s not found" % struct)
            continue
        for field in fields:
            if field not in registered:
                report(header, 1,
                       "%s::%s is never registered in %s() "
                       "(src/gpu/stat_bindings.cc); run reports "
                       "would silently drop it" %
                       (struct, field, func))


@rule("no-bare-assert",
      "src/gpu and src/check use LUMI_CHECK instead of assert(): "
      "checks must honor count mode, feed the violation counters, "
      "and compile out with -DLUMI_CHECKS=OFF.")
def check_no_bare_assert(ctx, report):
    pattern = re.compile(r"(?<![\w.])assert\s*\(")
    for path in ctx.source_files(("src/gpu", "src/check")):
        src = ctx.file(path)
        for lineno, line in enumerate(src.clean_lines, 1):
            if pattern.search(line) and "static_assert" not in line:
                report(path, lineno,
                       "use LUMI_CHECK instead of assert() in the "
                       "model: it honors count mode, feeds the "
                       "violation stats, and compiles out with "
                       "-DLUMI_CHECKS=OFF")


@rule("campaign-sweep",
      "Bench binaries must not hand-roll workload loops with direct "
      "runWorkload()/runCompute() calls; sweeps go through the "
      "campaign engine (bench_util.hh runAll/runJobs).")
def check_campaign_sweep(ctx, report):
    pattern = re.compile(r"\brun(?:Workload|Compute)\s*\(")
    bench_dir = os.path.join(ctx.root, "bench")
    if not os.path.isdir(bench_dir):
        return
    for name in sorted(os.listdir(bench_dir)):
        if not name.endswith(".cc"):
            continue
        path = os.path.join(bench_dir, name)
        src = ctx.file(path)
        for lineno, line in enumerate(src.clean_lines, 1):
            if pattern.search(line):
                report(path, lineno,
                       "direct runWorkload()/runCompute() in a bench "
                       "binary; route the sweep through bench_util "
                       "runAll()/runJobs() (campaign engine) so it "
                       "gets LUMI_JOBS parallelism, retries and the "
                       "result cache")


@rule("cache-access",
      "Outside the MemSystem implementation, no src/ code may call "
      "Cache::probe/writeProbe/peek/fill directly; every access "
      "flows through the issueRead/issueWrite ports so MSHR and "
      "port accounting stay conserved.")
def check_cache_access(ctx, report):
    # Method calls only (`.` or `->` receiver): free fill()/probe()
    # functions and std::fill never match.
    pattern = re.compile(
        r"(?:\.|->)\s*(probe|writeProbe|peek|fill)\s*\(")
    allowed_files = ("src/gpu/mem_system.cc", "src/gpu/cache.cc",
                     "src/gpu/cache.hh")
    for path in ctx.source_files(("src",)):
        rel = os.path.relpath(path, ctx.root)
        if rel in allowed_files:
            continue
        src = ctx.file(path)
        for lineno, line in enumerate(src.clean_lines, 1):
            match = pattern.search(line)
            if not match:
                continue
            report(path, lineno,
                   "direct Cache::%s() outside src/gpu/"
                   "mem_system.cc; go through MemSystem::issueRead/"
                   "issueWrite so MSHR and port accounting stay "
                   "conserved" % match.group(1))


@rule("gpu-chrono",
      "src/gpu must not touch wall-clock facilities except through "
      "the sanctioned self-profiling helper src/gpu/host_profile.cc; "
      "host timing in the model invites observer effects.")
def check_gpu_chrono(ctx, report):
    pattern = re.compile(r"std::chrono\b|#\s*include\s*<chrono>"
                         r"|\bclock_gettime\s*\(|\bgettimeofday\s*\(")
    # The one sanctioned clock user: the sampled host profiler.
    exempt = ("src/gpu/host_profile.hh", "src/gpu/host_profile.cc")
    for path in ctx.source_files(("src/gpu",)):
        rel = os.path.relpath(path, ctx.root)
        if rel in exempt:
            continue
        src = ctx.file(path)
        for lineno, line in enumerate(src.clean_lines, 1):
            if pattern.search(line):
                report(path, lineno,
                       "host clock in src/gpu outside the sanctioned "
                       "profiling helper (src/gpu/host_profile.cc); "
                       "wall time must never leak into model state")


@rule("hot-path-container",
      "No node-based std containers (std::map, std::set, "
      "std::unordered_map, std::list and friends) in src/gpu "
      "cycle-path code: "
      "per-element heap churn and pointer chasing dominate the "
      "event loop. Use the open-addressed flat tables "
      "(gpu/flat_map.hh), a vector with a head cursor, or an arena "
      "slot; deliberate cold-path uses are allowlisted with "
      "// lint:allow(hot-path-container).")
def check_hot_path_container(ctx, report):
    pattern = re.compile(
        r"\bstd::(map|multimap|unordered_map|unordered_multimap|"
        r"set|multiset|unordered_set|unordered_multiset|"
        r"list|forward_list)\s*<")
    for path in ctx.source_files(("src/gpu",)):
        src = ctx.file(path)
        for lineno, line in enumerate(src.clean_lines, 1):
            match = pattern.search(line)
            if match:
                report(path, lineno,
                       "std::%s on the src/gpu cycle path; "
                       "node-based containers churn the allocator "
                       "and chase pointers every cycle -- use "
                       "FlatMap/FlatSet (gpu/flat_map.hh), a (sorted) "
                       "vector, a vector with a head cursor, or an "
                       "arena slot "
                       "(DESIGN.md \"Event scheduler\")" %
                       match.group(1))


@rule("bvh-order",
      "No library-defined order in src/bvh: std::partition, std::sort, "
      "std::nth_element and std::priority_queue leave the order of "
      "ties or of a partition to the standard library, and the BVH "
      "builder's permutation fixes leaf order, node numbering and so "
      "every simulated address. Spell the order out instead, as "
      "TreeBuild::partition does (DESIGN.md \"BVH builder\").")
def check_bvh_order(ctx, report):
    pattern = re.compile(
        r"\bstd::(partition|sort|nth_element|priority_queue)\b")
    for path in ctx.source_files(("src/bvh",)):
        src = ctx.file(path)
        for lineno, line in enumerate(src.clean_lines, 1):
            match = pattern.search(line)
            if match:
                report(path, lineno,
                       "std::%s in src/bvh: its order is whatever the "
                       "standard library produces, and the tree must "
                       "not depend on it; write the permutation out "
                       "explicitly" % match.group(1))


def _check_spans(text):
    """[begin, end) offsets of every LUMI_CHECK(...) in @p text (a
    code view, so parens in literals never count)."""
    for match in re.finditer(r"\bLUMI_CHECK\s*\(", text):
        depth = 0
        for i in range(match.end() - 1, len(text)):
            depth += {"(": 1, ")": -1}.get(text[i], 0)
            if depth == 0:
                yield match.start(), i + 1
                break


@rule("profile-observer",
      "The top-down cycle account is a pure observer: in src/gpu, "
      "src/rt and src/compute a CycleProfile read (sm(), rt(), "
      "smTotal() or rtTotal() on profile_ or profile()) is allowed "
      "only in src/gpu/stat_bindings.cc and inside a LUMI_CHECK, so "
      "no bucket can feed back into simulated timing.")
def check_profile_observer(ctx, report):
    pattern = re.compile(r"\bprofile(?:_|\s*\(\s*\))\s*(?:\.|->)\s*"
                         r"(sm|rt|smTotal|rtTotal)\s*\(")
    for path in ctx.source_files(("src/gpu", "src/rt", "src/compute")):
        if os.path.relpath(path, ctx.root) == "src/gpu/stat_bindings.cc":
            continue
        clean = ctx.file(path).clean
        checks = list(_check_spans(clean))
        for match in pattern.finditer(clean):
            if any(b <= match.start() < e for b, e in checks):
                continue
            report(path, clean.count("\n", 0, match.start()) + 1,
                   "CycleProfile::%s() read outside a LUMI_CHECK and "
                   "src/gpu/stat_bindings.cc; the profile only "
                   "observes, and simulated timing must never depend "
                   "on it" % match.group(1))


# --------------------------------------------------------------- #
# layering: the #include dependency matrix.
# --------------------------------------------------------------- #

#: Allowed dependencies between src/ subsystems (self always
#: allowed). The partial order, lowest first:
#:   math < geometry < scene < bvh            (geometry stack)
#:   trace < check                            (observability stack)
#:   ... < gpu < rt < metrics < analysis      (model + analysis)
#:   compute sits just above rt (SIMT kernels on the gpu core; the
#:   rtq family reuses rt's shader/pipeline vocabulary)
#:   lumibench (runner/report/query) sees everything below it;
#:   campaign (the engine) sits on top and may also use lumibench.
#: Key guarantee: the timing model (gpu/rt) can never reach up into
#: campaign, lumibench or analysis, so nothing in the model can
#: depend on how runs are orchestrated or reported.
LAYER_DEPS = {
    "math": set(),
    "geometry": {"math"},
    "scene": {"geometry", "math"},
    "bvh": {"math", "geometry", "scene"},
    "trace": set(),
    "check": {"trace"},
    "gpu": {"math", "geometry", "scene", "bvh", "trace", "check"},
    "rt": {"math", "geometry", "scene", "bvh", "trace", "check",
           "gpu"},
    "compute": {"math", "geometry", "scene", "bvh", "trace",
                "check", "gpu", "rt"},
    "metrics": {"math", "geometry", "scene", "bvh", "trace",
                "check", "gpu", "rt"},
    "analysis": {"math", "geometry", "scene", "bvh", "trace",
                 "check", "gpu", "rt", "metrics"},
    "lumibench": {"math", "geometry", "scene", "bvh", "trace",
                  "check", "gpu", "rt", "compute", "metrics",
                  "analysis"},
    "campaign": {"math", "geometry", "scene", "bvh", "trace",
                 "check", "gpu", "rt", "compute", "metrics",
                 "analysis", "lumibench"},
}


@rule("layering",
      "src/ subsystems may only #include downward along the "
      "dependency matrix (math -> geometry/scene -> bvh -> gpu -> "
      "rt -> ... -> lumibench -> campaign); in particular the "
      "timing model (src/gpu, src/rt) may never include campaign, "
      "lumibench or analysis headers.")
def check_layering(ctx, report):
    for path in ctx.source_files(("src",)):
        rel = os.path.relpath(path, ctx.root)
        parts = rel.split(os.sep)
        if len(parts) < 3 or parts[0] != "src":
            continue
        layer = parts[1]
        allowed = LAYER_DEPS.get(layer)
        if allowed is None:
            # A new subsystem must be added to the matrix before it
            # can include anything.
            allowed = set()
        src = ctx.file(path)
        for token in src.tokens:
            if token.kind != "include":
                continue
            target = token.text
            if not target.startswith('"'):
                continue  # system headers are not layered
            inner = target.strip('"')
            dep = inner.split("/", 1)[0] if "/" in inner else None
            if dep is None or dep not in LAYER_DEPS:
                continue
            if dep == layer or dep in allowed:
                continue
            report(path, token.line,
                   "src/%s may not include \"%s\": the layering "
                   "matrix allows %s -> {%s} only (see "
                   "tools/analyze/rules.py LAYER_DEPS / DESIGN.md "
                   "\"Static analysis\")" %
                   (layer, inner, layer,
                    ", ".join(sorted(allowed)) or "nothing"))


# --------------------------------------------------------------- #
# lock-discipline: the GCC-side twin of clang -Wthread-safety.
# --------------------------------------------------------------- #

_LOCK_TYPES = frozenset(("MutexLock", "lock_guard", "unique_lock",
                         "scoped_lock", "shared_lock"))
_FUNC_PRECEDERS = frozenset((")", "]", "const", "noexcept",
                             "override", "final", "mutable", "try",
                             "else", "do"))
_TYPE_KEYWORDS = frozenset(("class", "struct", "union", "enum"))


def _guarded_fields(src):
    """(field, mutex, line) triples declared in @p src via
    LUMI_GUARDED_BY / LUMI_PT_GUARDED_BY."""
    out = []
    toks = src.tokens
    for i, token in enumerate(toks):
        if token.kind != "id" or token.text not in (
                "LUMI_GUARDED_BY", "LUMI_PT_GUARDED_BY"):
            continue
        # Mutex: last identifier of the macro argument.
        mutex = None
        j = i + 1
        if j < len(toks) and toks[j].text == "(":
            depth = 1
            j += 1
            while j < len(toks) and depth > 0:
                if toks[j].text == "(":
                    depth += 1
                elif toks[j].text == ")":
                    depth -= 1
                elif toks[j].kind == "id":
                    mutex = toks[j].text
                j += 1
        # Field: identifier before the macro, skipping an array
        # extent ([...]) if present.
        k = i - 1
        if k >= 0 and toks[k].text == "]":
            depth = 1
            k -= 1
            while k >= 0 and depth > 0:
                if toks[k].text == "]":
                    depth += 1
                elif toks[k].text == "[":
                    depth -= 1
                k -= 1
        if k >= 0 and toks[k].kind == "id" and mutex:
            out.append((toks[k].text, mutex, token.line))
    return out


def _last_ident_of_first_arg(toks, open_paren):
    """Last identifier of the first argument in toks after the
    opening paren index (handles `s.mutex`, `this->mutex_`)."""
    depth = 1
    j = open_paren + 1
    last = None
    while j < len(toks) and depth > 0:
        text = toks[j].text
        if text == "(":
            depth += 1
        elif text == ")":
            depth -= 1
        elif text == "," and depth == 1:
            break
        elif toks[j].kind == "id" and depth == 1:
            last = text
        j += 1
    return last


def _check_file_discipline(src, guarded, report, path):
    """Scan @p src's function bodies for unlocked accesses to the
    fields in @p guarded (field -> mutex)."""
    toks = src.tokens
    n = len(toks)
    # Brace stack entries: [kind, raii_acquisitions]. Manual
    # mutex.lock() acquisitions live in `manual` until .unlock() or
    # the enclosing function closes.
    stack = []
    func_depth = []  # stack indices where a function body opened
    manual = []      # (mutex, stack_depth_of_function)

    def inside_function():
        return bool(func_depth)

    def held():
        have = set(m for m, _ in manual)
        for entry in stack:
            have |= entry[1]
        return have

    i = 0
    stmt_start = 0  # token index where the current statement began
    while i < n:
        token = toks[i]
        text = token.text

        if text == "{":
            run = [t.text for t in toks[stmt_start:i]]
            if any(k in run for k in _TYPE_KEYWORDS):
                kind = "type"
            elif "namespace" in run:
                kind = "ns"
            elif run and run[-1] in _FUNC_PRECEDERS:
                kind = "func"
            elif not stack or stack[-1][0] in ("type", "ns"):
                kind = "other"
            else:
                kind = "block"
            acq = set()
            if kind == "func":
                # Capability annotations on the signature count as
                # held for the whole body.
                for k, word in enumerate(run):
                    if word in ("LUMI_REQUIRES", "LUMI_ACQUIRE",
                                "LUMI_RELEASE"):
                        # find the ids inside the following parens
                        for w in run[k + 1:]:
                            if w == ")":
                                break
                            if w not in ("(", ",", "::"):
                                acq.add(w)
                    if word == "LUMI_NO_THREAD_SAFETY_ANALYSIS":
                        kind = "func-skip"
            stack.append([kind, acq])
            if kind in ("func", "func-skip"):
                func_depth.append(len(stack))
            stmt_start = i + 1
            i += 1
            continue

        if text == "}":
            if stack:
                closing = stack.pop()
                if closing[0] in ("func", "func-skip"):
                    func_depth.pop()
                    # Manual locks never outlive their function.
                    manual[:] = [(m, d) for m, d in manual
                                 if d <= len(stack)]
            stmt_start = i + 1
            i += 1
            continue

        if text == ";":
            stmt_start = i + 1
            i += 1
            continue

        if not inside_function() or token.kind != "id":
            i += 1
            continue

        skip = any(s[0] == "func-skip" for s in stack)

        # RAII guard declaration: MutexLock l(mutex_); or
        # std::lock_guard<std::mutex> l(s.mutex);
        if text in _LOCK_TYPES:
            j = i + 1
            if j < n and toks[j].text == "<":
                depth = 1
                j += 1
                while j < n and depth > 0:
                    if toks[j].text == "<":
                        depth += 1
                    elif toks[j].text == ">":
                        depth -= 1
                    j += 1
            if j < n and toks[j].kind == "id":
                j += 1
                if j < n and toks[j].text == "(":
                    mutex = _last_ident_of_first_arg(toks, j)
                    if mutex and stack:
                        stack[-1][1].add(mutex)
            i += 1
            continue

        # Manual lock()/unlock() on a known mutex name.
        if text in ("lock", "unlock", "try_lock") and i >= 2 and \
                toks[i - 1].text in (".", "->") and \
                toks[i - 2].kind == "id" and \
                i + 1 < n and toks[i + 1].text == "(":
            mutex = toks[i - 2].text
            if text == "unlock":
                for k in range(len(manual) - 1, -1, -1):
                    if manual[k][0] == mutex:
                        del manual[k]
                        break
            else:
                manual.append((mutex, len(stack)))
            i += 2
            continue

        # Guarded-field access?
        mutex = guarded.get(text)
        if mutex is not None and not skip:
            # A call f(...) is a function sharing the name, not a
            # field access. Member declarations are not accesses:
            # either we are outside any function (class at file
            # scope) or the innermost scope is a type body (a local
            # struct like campaign.cc's IoState).
            is_call = i + 1 < n and toks[i + 1].text == "("
            in_decl = bool(stack) and stack[-1][0] == "type"
            if not is_call and not in_decl and mutex not in held():
                report(path, token.line,
                       "'%s' is LUMI_GUARDED_BY(%s) but this scope "
                       "never acquires it (no MutexLock/lock_guard "
                       "of %s, no %s.lock(), and the function is "
                       "not LUMI_REQUIRES(%s)); clang "
                       "-Wthread-safety would reject this build" %
                       (text, mutex, mutex, mutex, mutex))
        i += 1


@rule("lock-discipline",
      "Every field annotated LUMI_GUARDED_BY(m) may only be touched "
      "inside a scope that acquired m (RAII guard, m.lock(), or a "
      "LUMI_REQUIRES(m) function); keeps GCC builds as honest as "
      "clang -Wthread-safety ones.")
def check_lock_discipline(ctx, report):
    # Group files by (directory, stem): a class declared in x.hh is
    # implemented in x.cc, so the pair shares one guarded-field map.
    groups = {}
    for path in ctx.source_files(("src",)):
        stem = os.path.splitext(path)[0]
        groups.setdefault(stem, []).append(path)
    for stem in sorted(groups):
        paths = sorted(groups[stem])
        guarded = {}
        for path in paths:
            for field, mutex, _line in _guarded_fields(
                    ctx.file(path)):
                guarded[field] = mutex
        if not guarded:
            continue
        for path in paths:
            _check_file_discipline(ctx.file(path), guarded, report,
                                   path)
