#!/usr/bin/env python3
"""API-surface guard: keep the engine's evaluation surface closed.

The evaluation pipeline has one entry point —
EvalEngine::run(const EvalPlan&) (see docs/ARCHITECTURE.md,
"Evaluation plans"). The easy way to erode that is to add "just one
more" ad-hoc public batch method instead of extending EvalPlan. This
script fails CI when a public *Batch or *Stream declaration appears in
a guarded runtime header outside that header's allowlist.

The guard covers the whole src/engine runtime surface: eval_engine.hh
allows only grainForBatch (the ScaledDD oracle is a plan too,
engine::oraclePlan), while the layer headers (executor.hh,
job_source.hh, result_sink.hh) have empty
allowlists — the layers compose through run(), so a *Batch/*Stream
entry point appearing on any of them is exactly the erosion this
tripwire exists to catch. The serve daemon headers (src/serve/*.hh)
are guarded the same way: the daemon speaks EvalPlan over the wire,
so it must never grow a named evaluation entry point of its own.

Parsing is deliberately dumb (regex over access-specifier sections,
comments stripped), which is exactly right for a tripwire: it needs
no compiler, runs in milliseconds, and a false positive is a
one-line allowlist edit away — with a reviewer looking at it, which
is the point.

Usage:
  tools/check_api_surface.py            # check every guarded header
  tools/check_api_surface.py --header PATH
  tools/check_api_surface.py --self-test
"""

import argparse
import re
import sys

# The public surface of eval_engine.hh besides run(): grainForBatch
# (a scheduling introspection knob, not evaluation). The oracle the
# accuracy figures measure against is a plan (engine::oraclePlan), not
# a named batch method. Growing this list is an API-design decision:
# new evaluation shapes belong in EvalPlan, not in new named entry
# points.
ALLOWED = frozenset({"grainForBatch"})

# Every guarded header and its allowlist. The layer and serve headers
# allow nothing: their public surfaces are the layer interfaces
# (next(), consume*(), send/receive), never named evaluation entry
# points.
GUARDED = {
    "src/engine/eval_engine.hh": ALLOWED,
    "src/engine/executor.hh": frozenset(),
    "src/engine/job_source.hh": frozenset(),
    "src/engine/result_sink.hh": frozenset(),
    "src/serve/frame.hh": frozenset(),
    "src/serve/server.hh": frozenset(),
    "src/serve/client.hh": frozenset(),
    "src/serve/routing_sink.hh": frozenset(),
}

DECL_RE = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*(?:Batch|Stream))\s*\(")
ACCESS_RE = re.compile(r"^\s*(public|protected|private)\s*:")


def strip_comments(text):
    """Remove // and /* */ comments (naive, no string literals in
    these headers' declarations to trip over)."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def public_decls(text):
    """(line, name) of every *Batch/*Stream declared in a public
    section of a class body (file scope counts as public too)."""
    decls = []
    access = "public"
    lines = strip_comments(text).splitlines()
    for lineno, line in enumerate(lines, start=1):
        m = ACCESS_RE.match(line)
        if m:
            access = m.group(1)
            continue
        if access != "public":
            continue
        for m in DECL_RE.finditer(line):
            decls.append((lineno, m.group(1)))
    return decls


def check(text, allowed=ALLOWED):
    """Offending (line, name) pairs: public decls off the allowlist."""
    return [(line, name) for line, name in public_decls(text)
            if name not in allowed]


def check_header(path, allowed):
    """Check one header file; prints the verdict, returns 0/1."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    offenders = check(text, allowed)
    if offenders:
        for line, name in offenders:
            print(f"FAIL {path}:{line}: new public entry "
                  f"point {name}() — extend EvalPlan and "
                  f"EvalEngine::run instead (or, if this is a "
                  f"deliberate API decision, add it to the "
                  f"allowlist in tools/check_api_surface.py)")
        return 1
    print(f"ok   {path}: public evaluation surface is "
          f"frozen ({len(allowed)} allowlisted entry points)")
    return 0


def self_test():
    header = """
class EvalEngine
{
  public:
    PlanRun run(const EvalPlan &plan, const PlanInputs &inputs = {});
    size_t grainForBatch(size_t n) const;
  private:
    void pvalueBatchImpl(const FormatOps &format);
    void runBatch(size_t n);
};
"""
    assert check(header) == [], check(header)

    # A new public entry point trips the guard...
    added = header.replace(
        "  private:",
        "    std::vector<EvalResult> pvalueTurboBatch(int fast);\n"
        "  private:")
    bad = check(added)
    assert [name for _, name in bad] == ["pvalueTurboBatch"], bad

    # ...whether *Batch or *Stream flavored...
    streamed = header.replace(
        "  private:",
        "    StreamStats posteriorStream(const FormatOps &format);\n"
        "  private:")
    assert [name for _, name in check(streamed)] == [
        "posteriorStream"], check(streamed)

    # ...and so does a deleted pre-plan entry point coming back.
    revived = header.replace(
        "  private:",
        "    std::vector<EvalResult>\n"
        "    pvalueBatch(const FormatOps &format);\n"
        "  private:")
    assert [name for _, name in check(revived)] == [
        "pvalueBatch"], check(revived)

    # A deleted oracle batch coming back trips it too: the oracle is a
    # plan, not a named entry point.
    oracle = header.replace(
        "  private:",
        "    std::vector<BigFloat>\n"
        "    pvalueOracleBatch(std::span<const pbd::Column> columns);\n"
        "  private:")
    assert [name for _, name in check(oracle)] == [
        "pvalueOracleBatch"], check(oracle)

    # Private helpers never trip it, comments never trip it.
    commented = header.replace(
        "  private:",
        "    // sketch: pvalueMegaBatch(const FormatOps &format);\n"
        "  private:")
    assert check(commented) == [], check(commented)

    # A second public section after private: is scanned again.
    reopened = header + """
class AccuracyTally
{
  public:
    void turboTallyStream(int x);
};
"""
    assert [name for _, name in check(reopened)] == [
        "turboTallyStream"], check(reopened)

    # The layer/serve headers run under an empty allowlist: their
    # current surfaces (virtual next()/consume*/send/receive shapes)
    # must pass, and even an eval_engine.hh allowlisted name trips
    # them.
    layer = """
class JobSource
{
  public:
    virtual std::optional<WorkBlock> next() = 0;
    virtual StreamStats stats() const { return {}; }
};
"""
    empty = frozenset()
    assert check(layer, empty) == [], check(layer, empty)
    leaked = layer + """
class ResultSink
{
  public:
    std::vector<BigFloat> pvalueOracleBatch(Columns columns);
    size_t grainForBatch(size_t n) const;
};
"""
    assert [name for _, name in check(leaked, empty)] == [
        "pvalueOracleBatch", "grainForBatch"], check(leaked, empty)

    # Sanity: every guarded header must actually exist in the tree
    # (a renamed header silently un-guards itself otherwise).
    import os
    here = os.path.dirname(os.path.abspath(__file__))
    for path in GUARDED:
        full = os.path.join(here, "..", path)
        assert os.path.exists(full), f"guarded header missing: {path}"

    print("self-test ok")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="fail when a guarded runtime header grows a "
                    "public *Batch/*Stream entry point off its "
                    "allowlist")
    parser.add_argument("--header", default=None,
                        help="check only this header (default: all "
                             "guarded headers)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    if args.header is not None:
        return check_header(args.header,
                            GUARDED.get(args.header, ALLOWED))
    status = 0
    for path, allowed in GUARDED.items():
        status |= check_header(path, allowed)
    return status


if __name__ == "__main__":
    sys.exit(main())
