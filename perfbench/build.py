"""Build file of the benchmark: compiles the program's main sources and the
harness under perfbench/src with the Scala compiler that ships with Spark,
into .bench_build/classes of the checkout. A rebuild happens only when a
source file changed.

    python3 perfbench/build.py      # build, print the runtime classpath
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
CLASSES = BUILD_DIR / "classes"
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
PROGRAM_RESOURCES = ROOT / "src" / "main" / "resources"
# The DuckDB test oracle is not on any pipeline path and needs a jar Spark
# does not ship.
EXCLUDED = {"Oracle.scala"}


class BuildError(RuntimeError):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = sorted(Path(home, "jars").glob("*.jar")) if home else []
    if not jars:
        raise BuildError("no Spark jars found: set SPARK_HOME")
    return [str(j) for j in jars]


def sources():
    if not PROGRAM_SOURCES.is_dir():
        raise BuildError(f"program sources not found under {PROGRAM_SOURCES}")
    found = [p for p in sorted(PROGRAM_SOURCES.rglob("*.scala")) if p.name not in EXCLUDED]
    found += sorted((BENCH_DIR / "src").rglob("*.scala"))
    return found


def _stamp(files, jars):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    for j in jars:
        h.update(Path(j).name.encode())
    return h.hexdigest()


def build():
    """Compile if needed and return the runtime classpath."""
    jars = spark_jars()
    files = sources()
    resources = sorted(p for p in PROGRAM_RESOURCES.rglob("*") if p.is_file()) \
        if PROGRAM_RESOURCES.is_dir() else []
    stamp = _stamp(files + resources, jars)
    stamp_file = CLASSES / ".stamp"
    classpath = os.pathsep.join([str(CLASSES)] + jars)
    if stamp_file.is_file() and stamp_file.read_text() == stamp:
        return classpath
    fresh = BUILD_DIR / "classes.new"
    shutil.rmtree(fresh, ignore_errors=True)
    fresh.mkdir(parents=True)
    jar_path = os.pathsep.join(jars)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", jar_path, "scala.tools.nsc.Main",
           "-encoding", "UTF-8", "-nowarn", "-d", str(fresh), "-classpath", jar_path]
    cmd += [str(f) for f in files]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        raise BuildError("compilation failed:\n" + done.stdout[-4000:])
    for r in resources:
        target = fresh / r.relative_to(PROGRAM_RESOURCES)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(r, target)
    (fresh / ".stamp").write_text(stamp)
    shutil.rmtree(CLASSES, ignore_errors=True)
    fresh.rename(CLASSES)
    return classpath


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        sys.exit(2)
