#!/usr/bin/env python3
"""Docs lane: keep the documentation from silently rotting.

Seven checks, all cheap enough to run on every push:

1. Link check — every relative markdown link in docs/*.md and README.md
   must point at a file that exists in the repo (anchors are stripped;
   external http(s)/mailto links are skipped: CI must not depend on the
   network).
2. Subsystem guard — every `src/<subsystem>/` directory must be named in
   docs/architecture.md's subsystem map. Adding a new subsystem without
   documenting where it sits in the architecture fails CI.
3. Knob guard — the set of DIMMUNIX_* environment variables that src/ and
   tools/ read (getenv, or the Getenv/Env* helpers of
   src/common/config.cc) must equal the README "Environment knobs" list.
   A knob added or removed without its README line fails CI. Every
   DIMMUNIX_* name in docs/*.md must also be a knob the code reads, a
   macro #defined in src/, or a CMake/script variable (set() or option()
   in CMakeLists.txt, ${...} in scripts/*.sh), so a removed knob cannot
   linger in a docs table.
4. Orphan-report guard — every committed BENCH_<name>.json at the repo
   root must have a `benchjson --bench <name>` step in
   .github/workflows/ci.yml, so no report outlives the bench that
   regenerates and gates it.
5. Bench-name guard — every `--bench <name>` that README.md, docs/*.md
   or a workflow names must be a bench in benchjson's usage line.
6. Verb guard — every `history_tool <verb>` that README.md, docs/*.md or
   a workflow names must be a verb in history_tool's usage text. CMake
   `--target` lists (which name history_tool as a target) are skipped.
7. Metric guard — every dimmunix_* metric name in README.md or docs/*.md
   must be one `dimctl metrics` can emit: a "dimmunix_..." string literal
   in src/, or dimmunix_<histogram> (a HistoName() in src/obs/recorder.cc)
   with or without _bucket, _count or _sum. A name ending in `_` is a
   prefix (`dimmunix_fleet_*`) and `_{a,b}_total` is expanded.

Exit status is the number of violations (0 = clean).
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# [text](target) — good enough for the hand-written markdown in this repo;
# fenced code blocks are excluded below so code samples can't false-positive.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

# A DIMMUNIX_* name passed as a string literal to an environment reader.
KNOB_READ_RE = re.compile(r"\b(?:getenv|Getenv|Env[A-Za-z]+)\(\s*\"(DIMMUNIX_[A-Z0-9_]+)\"")
KNOB_NAME_RE = re.compile(r"`(DIMMUNIX_[A-Z0-9_]+)")
ANY_NAME_RE = re.compile(r"\b(DIMMUNIX_[A-Z0-9_]+)")
MACRO_RE = re.compile(r"#\s*define\s+(DIMMUNIX_[A-Z0-9_]+)")
CMAKE_VAR_RE = re.compile(r"\b(?:set|option)\(\s*(DIMMUNIX_[A-Z0-9_]+)")
SCRIPT_VAR_RE = re.compile(r"\$\{(DIMMUNIX_[A-Z0-9_]+)")

# benchjson's usage line lists every bench it runs: "--bench a|b|...|all".
USAGE_RE = re.compile(r"usage: benchjson --bench ([a-z0-9|]+)")
BENCH_ARG_RE = re.compile(r"--bench\s+([a-z][a-z0-9_]*)")

# history_tool's usage text: "usage: history_tool show <file>" and one
# indented "history_tool <verb> ..." line per further verb.
TOOL_USAGE_RE = re.compile(r"\"(?:usage: |\s+)history_tool ([a-z][a-z0-9-]*)")
TOOL_VERB_RE = re.compile(r"\bhistory_tool[ \t]+([a-z][a-z0-9-]*)")

METRIC_LITERAL_RE = re.compile(r"\"(dimmunix_[a-z0-9_]+)\"")
HISTO_NAME_RE = re.compile(r"return \"([a-z0-9_]+)\";")
# A metric mention: a name, optionally with a {a,b} expansion and a suffix.
METRIC_MENTION_RE = re.compile(r"\b(dimmunix_[a-z0-9_]*)(?:\{([a-z0-9_,]+)\}([a-z0-9_]*))?")


def strip_fenced_code(text: str) -> str:
    out, in_fence = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return "\n".join(out)


def check_links(md_path: pathlib.Path) -> list[str]:
    errors = []
    text = strip_fenced_code(md_path.read_text(encoding="utf-8"))
    for target in LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:  # pure in-page anchor
            continue
        resolved = (md_path.parent / path_part).resolve()
        if not resolved.exists():
            errors.append(f"{md_path.relative_to(ROOT)}: broken link -> {target}")
    return errors


def check_subsystems() -> list[str]:
    arch = ROOT / "docs" / "architecture.md"
    if not arch.exists():
        return ["docs/architecture.md is missing"]
    text = arch.read_text(encoding="utf-8")
    errors = []
    for sub in sorted((ROOT / "src").iterdir()):
        if not sub.is_dir():
            continue
        needle = f"src/{sub.name}/"
        if needle not in text:
            errors.append(
                f"docs/architecture.md: subsystem {needle} is not documented "
                "(add it to the subsystem map)"
            )
    return errors


def knobs_read() -> set[str]:
    names = set()
    for top in ("src", "tools"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix in (".cc", ".h"):
                names.update(KNOB_READ_RE.findall(path.read_text(encoding="utf-8")))
    return names


def knobs_documented() -> set[str] | None:
    """Names in the README paragraph (and its list) opening "Environment
    knobs", up to the next heading; None when the section is missing."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.find("\nEnvironment knobs")
    if start < 0:
        return None
    end = text.find("\n#", start + 1)
    return set(KNOB_NAME_RE.findall(text[start : end if end >= 0 else len(text)]))


def build_names() -> set[str]:
    """DIMMUNIX_* names that are not environment knobs but may appear in
    docs: macros defined in src/ and CMake/script variables."""
    names = set()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".cc", ".h"):
            names.update(MACRO_RE.findall(path.read_text(encoding="utf-8")))
    names.update(CMAKE_VAR_RE.findall((ROOT / "CMakeLists.txt").read_text(encoding="utf-8")))
    for path in sorted((ROOT / "scripts").glob("*.sh")):
        names.update(SCRIPT_VAR_RE.findall(path.read_text(encoding="utf-8")))
    return names


def check_knobs() -> list[str]:
    documented = knobs_documented()
    if documented is None:
        return ["README.md: the \"Environment knobs\" list is missing"]
    read = knobs_read()
    errors = [f"README.md: knob {k} is read by the code but not listed"
              for k in sorted(read - documented)]
    errors += [f"README.md: knob {k} is listed but never read by src/ or tools/"
               for k in sorted(documented - read)]
    known = read | build_names()
    for md in sorted((ROOT / "docs").glob("*.md")):
        for name in sorted(set(ANY_NAME_RE.findall(md.read_text(encoding="utf-8"))) - known):
            errors.append(f"{md.relative_to(ROOT)}: {name} is not a knob the code reads, "
                          "a macro in src/, or a CMake/script variable")
    print(f"docs-check: {len(read)} DIMMUNIX_* environment knobs read by src/ and tools/")
    return errors


def benchjson_benches() -> set[str] | None:
    match = USAGE_RE.search((ROOT / "tools" / "benchjson.cc").read_text(encoding="utf-8"))
    return set(match.group(1).split("|")) if match else None


def check_bench_reports() -> list[str]:
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    run_in_ci = set(BENCH_ARG_RE.findall(ci))
    errors = []
    for report in sorted(ROOT.glob("BENCH_*.json")):
        name = report.name[len("BENCH_"):-len(".json")]
        if name not in run_in_ci:
            errors.append(f"{report.name}: no `benchjson --bench {name}` step in "
                          ".github/workflows/ci.yml (orphan report)")
    return errors


def check_bench_names() -> list[str]:
    known = benchjson_benches()
    if known is None:
        return ["tools/benchjson.cc: no \"usage: benchjson --bench ...\" line"]
    sources = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
               *sorted((ROOT / ".github" / "workflows").glob("*.yml"))]
    errors = []
    for path in sources:
        for name in sorted(set(BENCH_ARG_RE.findall(path.read_text(encoding="utf-8")))):
            if name not in known:
                errors.append(f"{path.relative_to(ROOT)}: `--bench {name}` is not a "
                              "benchjson bench (see its usage line)")
    return errors


def history_tool_verbs() -> set[str]:
    text = (ROOT / "examples" / "history_tool.cpp").read_text(encoding="utf-8")
    return set(TOOL_USAGE_RE.findall(text))


def without_target_lists(text: str) -> str:
    """Drops each logical line (backslash continuations joined) that passes
    CMake a --target list: those name history_tool as a build target."""
    logical, out = [], []
    for line in text.splitlines():
        logical.append(line)
        if line.rstrip().endswith("\\"):
            continue
        joined = "\n".join(logical)
        logical = []
        if "--target" not in joined:
            out.append(joined)
    out.extend(logical)
    return "\n".join(out)


def check_tool_verbs() -> list[str]:
    known = history_tool_verbs()
    if not known:
        return ["examples/history_tool.cpp: no \"usage: history_tool ...\" text"]
    sources = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
               *sorted((ROOT / ".github" / "workflows").glob("*.yml"))]
    errors = []
    for path in sources:
        text = without_target_lists(path.read_text(encoding="utf-8"))
        for verb in sorted(set(TOOL_VERB_RE.findall(text)) - known):
            errors.append(f"{path.relative_to(ROOT)}: `history_tool {verb}` is not a "
                          "history_tool verb (see its usage text)")
    return errors


def emittable_metrics() -> set[str]:
    names = set()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".cc", ".h"):
            names.update(METRIC_LITERAL_RE.findall(path.read_text(encoding="utf-8")))
    recorder = (ROOT / "src" / "obs" / "recorder.cc").read_text(encoding="utf-8")
    start = recorder.find("const char* HistoName(")
    body = recorder[start : recorder.find("\n}", start)] if start >= 0 else ""
    for histo in HISTO_NAME_RE.findall(body):
        if histo == "unknown":
            continue
        for suffix in ("", "_bucket", "_count", "_sum"):
            names.add(f"dimmunix_{histo}{suffix}")
    return names


def check_metric_names() -> list[str]:
    known = emittable_metrics()
    errors = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        mentioned = set()
        for stem, alternatives, suffix in METRIC_MENTION_RE.findall(
                path.read_text(encoding="utf-8")):
            if alternatives:
                mentioned.update(stem + alt + suffix for alt in alternatives.split(","))
            else:
                mentioned.add(stem)
        for name in sorted(mentioned):
            ok = (any(k.startswith(name) for k in known) if name.endswith("_")
                  else name in known)
            if not ok:
                errors.append(f"{path.relative_to(ROOT)}: metric {name} is not one "
                              "`dimctl metrics` can emit")
    return errors


def main() -> int:
    errors = []
    for md in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        errors.extend(check_links(md))
    errors.extend(check_subsystems())
    errors.extend(check_knobs())
    errors.extend(check_bench_reports())
    errors.extend(check_bench_names())
    errors.extend(check_tool_verbs())
    errors.extend(check_metric_names())
    for err in errors:
        print(f"docs-check: {err}", file=sys.stderr)
    if not errors:
        print("docs-check: all links resolve, all subsystems and knobs documented, "
              "every BENCH report and --bench name is backed by benchjson, "
              "every history_tool verb and dimmunix_* metric exists")
    return min(len(errors), 99)


if __name__ == "__main__":
    sys.exit(main())
