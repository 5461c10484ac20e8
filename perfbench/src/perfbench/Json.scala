package perfbench

/** Minimal JSON rendering for the raw run record: maps, sequences, strings,
  * numbers, booleans and null. Non-finite doubles become null.
  */
object Json {
  def render(v: Any): String = {
    val sb = new StringBuilder
    write(sb, v)
    sb.toString
  }

  private def write(sb: StringBuilder, v: Any): Unit = v match {
    case null | None       => sb ++= "null"
    case Some(x)           => write(sb, x)
    case b: Boolean        => sb ++= b.toString
    case d: Double         => sb ++= (if (d.isNaN || d.isInfinite) "null" else d.toString)
    case f: Float          => write(sb, f.toDouble)
    case n: Int            => sb ++= n.toString
    case n: Long           => sb ++= n.toString
    case s: String         => quote(sb, s)
    case m: collection.Map[_, _] =>
      sb += '{'
      m.iterator.zipWithIndex.foreach { case ((k, x), i) =>
        if (i > 0) sb += ','
        quote(sb, k.toString); sb += ':'; write(sb, x)
      }
      sb += '}'
    case xs: Iterable[_] =>
      sb += '['
      xs.iterator.zipWithIndex.foreach { case (x, i) =>
        if (i > 0) sb += ','
        write(sb, x)
      }
      sb += ']'
    case other => quote(sb, other.toString)
  }

  private def quote(sb: StringBuilder, s: String): Unit = {
    sb += '"'
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case '\r' => sb ++= "\\r"
      case '\t' => sb ++= "\\t"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    sb += '"'
  }
}
