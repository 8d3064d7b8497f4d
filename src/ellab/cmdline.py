"""Reading an ``ellab`` command line against a table of subcommands.

:mod:`ellab.cli` holds the table, one row per subcommand:
``(handler, positionals, options)``.  A positional is optional when its
name ends in "?".  An option is ``(flag, kind, default)``: kind None is a
flag, int reads through :func:`ellab.configs._parse_int`, str takes any text
and a tuple lists the choices; default ``...`` makes the option required.
A value lands on the attribute named by the flag without its dashes.

The grammar is the one argparse read from the same table, so every command
line keeps its meaning, exit code and error message: options before or after
the positionals, ``--opt value``, ``--opt=value``, ``-p2``, a unique prefix
of a long option, ``-h``/``--help`` anywhere, the last of a repeated option
winning and the first '--' ending the options.  It is a module of its own,
imported when a command line is read, so that importing :mod:`ellab.cli`
compiles none of it.
"""

from types import SimpleNamespace

from .configs import _parse_int
from .errors import MalformedInput

_HELP_FLAGS = ("-h", "--help")


def _is_negative_number(token):
    """argparse's ``^-\\d+$|^-\\d*\\.\\d+$``: such a token is a value, not an option."""
    whole, dot, fraction = token[1:].partition(".")
    return bool(whole.isdecimal() or dot and not whole) and (not dot or fraction.isdecimal())


def _read_option(token, flags):
    """How argparse reads ``token`` against the option strings ``flags``:
    None for a value, else (flag, attached value or None), with flag None
    for an unknown option.  A long option may be abbreviated to a unique
    prefix; a short one may take its value attached (``-p2``); either may
    take it after '='."""
    if not token.startswith("-") or token in ("-", "--"):
        return None
    if token in flags:
        return token, None
    name, equals, value = token.partition("=")
    if equals and name in flags:
        return name, value
    if token.startswith("--"):
        matches = [(flag, value if equals else None) for flag in flags if flag.startswith(name)]
    else:
        matches = [(flag, token[2:] if flag == token[:2] else None)
                   for flag in flags if flag == token[:2] or flag.startswith(token)]
    if len(matches) > 1:
        raise MalformedInput(f"ambiguous option: {token} could match "
                             + ", ".join(flag for flag, _ in matches))
    if matches:
        return matches[0]
    if _is_negative_number(token) or " " in token:
        return None
    return None, None


def _ignored(flag, value):
    """The usage error of a value given to a flag."""
    name = "-h/--help" if flag in _HELP_FLAGS else flag
    return MalformedInput(f"argument {name}: ignored explicit argument {value!r}")


def parse(argv, commands, helps):
    """(handler, args) of the command line ``argv`` by the table
    ``commands``: the subcommand's handler and its arguments as attributes,
    or (None, help text) for ``-h``, the texts being ``helps[name]`` and
    ``helps[""]``.  A usage error is MalformedInput."""
    extras = []
    name = None
    for start, token in enumerate(argv):
        read = _read_option(token, _HELP_FLAGS)
        if read is None:
            name = token
            break
        if read[0] is None:
            extras.append(token)
        elif read[1] is not None:
            raise _ignored(read[0], read[1])
        else:
            return None, helps[""]
    if name is None or argv[start:] == ["--"]:
        raise MalformedInput("the following arguments are required: command")
    if name not in commands:
        raise MalformedInput(f"argument command: invalid choice: {name!r} (choose from "
                             + ", ".join(map(repr, commands)) + ")")
    return _parse_command(commands[name], argv[start + 1:], extras, helps[name])


def _parse_command(row, rest, extras, help_text):
    """:func:`parse` of the tokens ``rest`` after a subcommand, by its row."""
    handler, positionals, options = row
    kinds = {flag: kind for flag, kind, _ in options}
    flags = _HELP_FLAGS + tuple(kinds)
    args = SimpleNamespace(**{flag.lstrip("-"): default for flag, _, default in options})
    free = list(positionals)
    end = rest.index("--") if "--" in rest else len(rest)
    # every option is read before any is acted on, so an ambiguous one is
    # the error, as with argparse
    reads = [_read_option(token, flags) for token in rest[:end]] + [None] * (len(rest) - end)
    index, filled = 0, False  # filled: the last token was a positional's value
    while index < len(rest):
        token, read, last, filled = rest[index], reads[index], filled, False
        index += 1
        if read is None:
            if index - 1 == end and (free or last):
                continue  # argparse drops the first '--' next to a positional's value
            if free:
                setattr(args, free.pop(0).rstrip("?"), token)
                filled = True
            else:
                extras.append(token)
            continue
        flag, value = read
        kind = kinds.get(flag)
        if flag is None:
            extras.append(token)
        elif kind is None:  # a flag, or help
            if value is not None:
                raise _ignored(flag, value)
            if flag in _HELP_FLAGS:
                return None, help_text
            setattr(args, flag.lstrip("-"), True)
        else:
            if value is None:
                if index in (end, len(rest)) or reads[index] is not None:
                    raise MalformedInput(f"argument {flag}: expected one argument")
                value = rest[index]
                index += 1
            setattr(args, flag.lstrip("-"), _option_value(flag, kind, value))
    missing = [positional for positional in free if not positional.endswith("?")]
    missing += [flag for flag, _, default in options
                if default is ... and getattr(args, flag.lstrip("-")) is ...]
    if missing:
        raise MalformedInput("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise MalformedInput("unrecognized arguments: " + " ".join(extras))
    for positional in free:
        setattr(args, positional[:-1], None)
    return handler, args


def _option_value(flag, kind, text):
    """The value of option ``flag`` of ``kind`` given as ``text``."""
    if kind is int:
        try:
            return _parse_int(text)
        except ValueError as exc:
            raise MalformedInput(f"argument {flag}: {exc}") from None
    if kind is not str and text not in kind:
        raise MalformedInput(f"argument {flag}: invalid choice: {text!r} (choose from "
                             + ", ".join(map(repr, kind)) + ")")
    return text
