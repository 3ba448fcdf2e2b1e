"""Test fixtures: the text helpers no command needs, a language file
written from a ConstraintLanguage and a certificate block read on its own."""

from maxcsp import io_formats


def emit_language(language):
    """The language file that parse_language reads back as `language`."""
    out = []
    for c in language:
        out.append(f"constraint {c.name} {c.arity}")
        for row in c.satisfying_rows():
            out.append(format(row, f"0{c.arity}b") if c.arity else "-")
        out.append("end")
    return "\n".join(out) + "\n"


def parse_certificate(text):
    """A certificate block alone, with line numbers from its first line."""
    return io_formats._parse_certificate_lines(list(io_formats._lines(text)))
