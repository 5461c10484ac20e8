package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.fd.HyFD

/** Reproduces Figure 4 as a table: maximal heap during FD discovery.
  *
  * Measurement caveat (documented in EXPERIMENTS.md): the paper compares
  * process-level RSS of a single-threaded C++ binary against Metanome
  * JVMs. Here every method shares one JVM with a live SparkSession, and
  * InFine's sampled peak includes Spark's block-manager caches and shuffle
  * buffers for the DataFrames it touches — several GB that are engine
  * state, not algorithm state. The *algorithmic* memory bound of the
  * paper (two lattice levels at a time) holds in `LatticeSearch`, the one
  * level-wise engine behind TANE and InFine, and is tested in
  * `LatticeSearchSpec`; this suite therefore reports the measured numbers
  * and asserts only measurement sanity.
  */
class MemorySuite extends AnyFunSuite {

  // A single representative baseline keeps this suite affordable; the full
  // matrix is available via `jobs/MemoryJob`.
  lazy val rows = Tables.memoryTable(Seq(HyFD))

  test("all 16 views are measured") {
    assert(rows.size == 16)
  }

  test("measurements are positive and finite") {
    rows.foreach { r =>
      assert(r.inFineMb > 0, r.view)
      r.baselines.values.foreach(v => assert(v != 0))
    }
  }

  test("per-view peaks are reported") {
    rows.foreach { r =>
      info(f"${r.view}%-45s InFine ${r.inFineMb}%6d MB  HyFD ${r.baselines.values.head}%6d MB")
    }
    assert(rows.nonEmpty)
  }
}
