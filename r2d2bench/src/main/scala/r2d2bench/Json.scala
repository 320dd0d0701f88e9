package r2d2bench

/** Minimal JSON rendering for the benchmark's outputs: objects with ordered
  * keys, sequences, strings, numbers and booleans.
  */
object Json {
  def apply(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int               => n.toString
    case n: Long              => n.toString
    case o: Obj               => o.fields.map { case (k, x) => s"${quote(k)}: ${apply(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]      => xs.map(apply).mkString("[", ", ", "]")
    case other                => quote(other.toString)
  }

  /** An object whose keys keep the order they were given in. */
  final case class Obj(fields: Seq[(String, Any)])
  def obj(fields: (String, Any)*): Obj = Obj(fields)

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.result()
  }
}
