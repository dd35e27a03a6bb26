"""The code-line counter behind ROADMAP's figures, pinned on a small source."""

import textwrap

from code_lines import code_lines

SOURCE = textwrap.dedent(
    '''\
    """Module docstring,
    two lines."""

    import os  # a trailing comment does not make a line code


    # a comment line
    class Thing:
        """Class docstring."""

        def method(self):
            """Function docstring,

            three lines."""
            "a bare string after the docstring is code"
            return os.path.join(
                "a call argument line that begins with a string",
                """a multi-line
                string argument""",
            )
    '''
)


def test_docstrings_comments_and_blank_lines_are_not_code():
    # import, class, def, the bare string, return, the two argument lines
    # (three with the string's second line) and the closing paren
    assert code_lines(SOURCE) == 9


def test_a_line_that_begins_with_a_string_in_a_call_is_code():
    assert code_lines('f(\n    "x",\n)\n') == 3
    assert code_lines('"""doc"""\nf(\n    "x",\n)\n') == 3
