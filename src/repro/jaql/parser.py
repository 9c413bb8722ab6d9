"""Parser for the SQL dialect Jaql accepts (close to SQL-92, Section 2.1).

Supports the query shape the paper works with: SELECT-FROM-WHERE with
conjunctive predicates, UDF calls in the WHERE clause, nested paths into
arrays/structs (``rs.addr[0].zip``), a parenthesized OR group (Q7's
nation-pair disjunction), GROUP BY, ORDER BY and LIMIT.

The FROM-clause join tree is built with Jaql's documented heuristic
(Section 2.2.2): relations are joined in the order they appear, except that
a relation avoiding a cartesian product is preferred when the next one in
line has no join condition with the tables joined so far.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.errors import ParseError, PlanError
from repro.jaql.expr import (
    Aggregate,
    ColumnRef,
    Comparison,
    Expr,
    Filter,
    GroupBy,
    Join,
    JoinCondition,
    Or,
    OrderBy,
    Predicate,
    Project,
    QuerySpec,
    Scan,
    UdfPredicate,
    conjunction,
)
from repro.jaql.functions import UdfRegistry

# The dialect has no arithmetic, so a sign directly before digits can
# only be a negative literal (TPC-H account balances go below zero).
_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>-?(?:\d+\.\d+|\d+))"
    r"|(?P<string>'(?:[^'\\]|\\.)*')"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|!=|=|<|>)"
    r"|(?P<punct>[(),.\[\]*])"
    r")"
)

_KEYWORDS = {
    "select", "from", "where", "and", "or", "group", "order", "by",
    "as", "desc", "asc", "limit", "count", "sum", "min", "max", "avg",
}


@dataclass(frozen=True)
class _Token:
    kind: str  # number | string | ident | keyword | op | punct | eof
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            remainder = text[pos:].lstrip()
            if not remainder:
                break
            raise ParseError(f"unexpected character {remainder[0]!r}", pos)
        pos = match.end()
        if match.group("number") is not None:
            tokens.append(_Token("number", match.group("number"),
                                 match.start()))
        elif match.group("string") is not None:
            tokens.append(_Token("string", match.group("string"),
                                 match.start()))
        elif match.group("ident") is not None:
            word = match.group("ident")
            kind = "keyword" if word.lower() in _KEYWORDS else "ident"
            tokens.append(_Token(kind, word, match.start()))
        elif match.group("op") is not None:
            tokens.append(_Token("op", match.group("op"), match.start()))
        else:
            tokens.append(_Token("punct", match.group("punct"),
                                 match.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class SqlParser:
    """Recursive-descent parser producing a :class:`QuerySpec`."""

    def __init__(self, udfs: UdfRegistry | None = None):
        self.udfs = udfs or UdfRegistry()
        self._tokens: list[_Token] = []
        self._index = 0

    # -- public -------------------------------------------------------------------

    def parse(self, text: str, name: str = "query") -> QuerySpec:
        self._tokens = _tokenize(text)
        self._index = 0

        self._expect_keyword("select")
        select_items = self._parse_select_list()
        self._expect_keyword("from")
        relations = self._parse_from_list()
        predicates: list[Predicate] = []
        if self._at_keyword("where"):
            self._advance()
            predicates = self._parse_conjunction()
        group_keys: list[ColumnRef] = []
        if self._at_keyword("group"):
            self._advance()
            self._expect_keyword("by")
            group_keys = self._parse_ref_list()
        order_keys: list[ColumnRef] = []
        descending = False
        limit: int | None = None
        if self._at_keyword("order"):
            self._advance()
            self._expect_keyword("by")
            order_keys = self._parse_ref_list()
            if self._at_keyword("desc"):
                descending = True
                self._advance()
            elif self._at_keyword("asc"):
                self._advance()
        if self._at_keyword("limit"):
            self._advance()
            limit = self._expect_count("LIMIT")
        self._expect("eof")

        root = self._build_tree(
            relations, predicates, select_items, group_keys,
            order_keys, descending, limit,
        )
        return QuerySpec(name, root)

    # -- token plumbing -------------------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.text!r}", token.position
            )
        return self._advance()

    def _at_keyword(self, word: str) -> bool:
        token = self._peek()
        return token.kind == "keyword" and token.text.lower() == word

    def _expect_keyword(self, word: str) -> None:
        if not self._at_keyword(word):
            token = self._peek()
            raise ParseError(
                f"expected {word.upper()}, found {token.text!r}",
                token.position,
            )
        self._advance()

    def _at_punct(self, char: str) -> bool:
        token = self._peek()
        return token.kind == "punct" and token.text == char

    def _expect_punct(self, char: str) -> None:
        if not self._at_punct(char):
            token = self._peek()
            raise ParseError(
                f"expected {char!r}, found {token.text!r}", token.position
            )
        self._advance()

    # -- clause parsers --------------------------------------------------------------

    def _parse_select_list(self) -> list[tuple[ColumnRef | Aggregate, str]]:
        items: list[tuple[ColumnRef | Aggregate, str]] = []
        while True:
            token = self._peek()
            if (token.kind == "keyword"
                    and token.text.lower() in ("count", "sum", "min",
                                               "max", "avg")):
                aggregate = self._parse_aggregate()
                name = self._parse_optional_alias(
                    default=aggregate.output_name
                )
                items.append((
                    Aggregate(aggregate.op, aggregate.arg, name), name
                ))
            else:
                column = self._parse_ref()
                default = (column.column if not column.steps
                           else column.describe())
                name = self._parse_optional_alias(default=default)
                items.append((column, name))
            if self._at_punct(","):
                self._advance()
                continue
            return items

    def _parse_aggregate(self) -> Aggregate:
        op = self._advance().text.lower()
        self._expect_punct("(")
        arg: ColumnRef | None = None
        if self._at_punct("*"):
            if op != "count":
                raise ParseError(f"{op}(*) is not valid", self._peek().position)
            self._advance()
        else:
            arg = self._parse_ref()
        self._expect_punct(")")
        default = f"{op}_{arg.column}" if arg is not None else "count"
        return Aggregate(op, arg, default)

    def _parse_optional_alias(self, default: str) -> str:
        if self._at_keyword("as"):
            self._advance()
            return self._expect("ident").text
        return default

    def _parse_ref_list(self) -> list[ColumnRef]:
        refs = [self._parse_ref()]
        while self._at_punct(","):
            self._advance()
            refs.append(self._parse_ref())
        return refs

    def _parse_from_list(self) -> list[tuple[str, str]]:
        relations: list[tuple[str, str]] = []
        while True:
            table = self._expect("ident").text
            alias = table
            if self._peek().kind == "ident":
                alias = self._advance().text
            relations.append((table, alias))
            if self._at_punct(","):
                self._advance()
                continue
            return relations

    def _parse_conjunction(self) -> list[Predicate]:
        predicates = [self._parse_predicate()]
        while self._at_keyword("and"):
            self._advance()
            predicates.append(self._parse_predicate())
        return predicates

    def _parse_predicate(self) -> Predicate:
        if self._at_punct("("):
            return self._parse_or_group()
        token = self._peek()
        if token.kind != "ident":
            raise ParseError(
                f"expected predicate, found {token.text!r}", token.position
            )
        # Lookahead: identifier followed by '(' is a UDF call.
        next_token = self._tokens[self._index + 1]
        if next_token.kind == "punct" and next_token.text == "(":
            return self._parse_udf_predicate()
        left = self._parse_ref()
        op = self._expect("op").text
        right = self._parse_value()
        return Comparison(left, op, right)

    def _parse_or_group(self) -> Predicate:
        self._expect_punct("(")
        branches = [conjunction(self._parse_conjunction())]
        while self._at_keyword("or"):
            self._advance()
            branches.append(conjunction(self._parse_conjunction()))
        self._expect_punct(")")
        if len(branches) == 1:
            return branches[0]
        return Or(tuple(branches))

    def _parse_udf_predicate(self) -> Predicate:
        name = self._expect("ident").text
        udf = self.udfs.get(name)
        self._expect_punct("(")
        args = [self._parse_ref()]
        while self._at_punct(","):
            self._advance()
            args.append(self._parse_ref())
        self._expect_punct(")")
        # Optional '= positive' / '= true' sugar from the paper's Q1 syntax;
        # the UDF itself is boolean, so the right side must be truthy.
        if self._peek().kind == "op" and self._peek().text == "=":
            self._advance()
            value_token = self._advance()
            if value_token.kind not in ("ident", "string", "keyword"):
                raise ParseError(
                    "UDF comparisons support only '= <label>' sugar",
                    value_token.position,
                )
        return UdfPredicate(udf, tuple(args))

    def _parse_ref(self) -> ColumnRef:
        alias = self._expect("ident").text
        steps: list[str | int] = []
        column: str | None = None
        while True:
            if self._at_punct("."):
                self._advance()
                token = self._peek()
                if token.kind not in ("ident", "keyword"):
                    raise ParseError(
                        f"expected field name, found {token.text!r}",
                        token.position,
                    )
                word = self._advance().text
                if column is None:
                    column = word
                else:
                    steps.append(word)
            elif self._at_punct("["):
                self._advance()
                index = self._expect_count("array index")
                self._expect_punct("]")
                if column is None:
                    raise ParseError(
                        "array index before column name", self._peek().position
                    )
                steps.append(index)
            else:
                break
        if column is None:
            # Bare identifier: unqualified column (e.g. an aggregate output
            # of an upstream block scanned under this query).
            return ColumnRef("", alias)
        return ColumnRef(alias, column, tuple(steps))

    def _expect_count(self, what: str) -> int:
        """A number token that is a plain non-negative integer."""
        token = self._expect("number")
        if not token.text.isdigit():
            raise ParseError(
                f"{what} must be a non-negative integer, found "
                f"{token.text!r}", token.position)
        return int(token.text)

    def _parse_value(self) -> Any:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            return float(token.text) if "." in token.text else int(token.text)
        if token.kind == "string":
            self._advance()
            return token.text[1:-1].replace("\\'", "'")
        if token.kind in ("ident", "keyword"):
            return self._parse_ref()
        raise ParseError(f"expected value, found {token.text!r}",
                         token.position)

    # -- tree construction --------------------------------------------------------

    def _build_tree(
        self,
        relations: list[tuple[str, str]],
        predicates: list[Predicate],
        select_items: list[tuple[ColumnRef | Aggregate, str]],
        group_keys: list[ColumnRef],
        order_keys: list[ColumnRef],
        descending: bool,
        limit: int | None,
    ) -> Expr:
        join_conditions: list[JoinCondition] = []
        filters: list[Predicate] = []
        for predicate in predicates:
            if (isinstance(predicate, Comparison) and predicate.op == "="
                    and isinstance(predicate.right, ColumnRef)
                    and predicate.left.alias != predicate.right.alias
                    and not predicate.left.steps
                    and not predicate.right.steps):
                join_conditions.append(
                    JoinCondition(predicate.left, predicate.right)
                )
            else:
                filters.append(predicate)

        tree = self._build_join_tree(relations, join_conditions)
        for predicate in filters:
            tree = Filter(tree, predicate)

        aggregates = tuple(
            item for item, _ in select_items if isinstance(item, Aggregate)
        )
        if group_keys or aggregates:
            tree = GroupBy(tree, tuple(group_keys), aggregates)
        if order_keys:
            tree = OrderBy(tree, tuple(order_keys), descending, limit)
        outputs = tuple(
            (item if isinstance(item, ColumnRef) else item.output_name, name)
            for item, name in select_items
        )
        return Project(tree, outputs)

    def _build_join_tree(
        self,
        relations: list[tuple[str, str]],
        conditions: list[JoinCondition],
    ) -> Expr:
        """Jaql's FROM-order heuristic with cartesian avoidance."""
        if not relations:
            raise ParseError("FROM clause is empty")
        remaining = list(relations)
        table, alias = remaining.pop(0)
        tree: Expr = Scan(table, alias)
        joined = {alias}
        pending = list(conditions)
        while remaining:
            chosen_index = None
            for index, (_, candidate) in enumerate(remaining):
                connecting = [
                    c for c in pending
                    if candidate in c.aliases()
                    and bool((c.aliases() - {candidate}) & joined)
                ]
                if connecting:
                    chosen_index = index
                    break
            if chosen_index is None:
                names = [alias for _, alias in remaining]
                raise PlanError(
                    f"cartesian product required to join {names}; "
                    f"not supported"
                )
            table, alias = remaining.pop(chosen_index)
            joined.add(alias)
            # All pending conditions now fully inside the joined set attach
            # to this join -- including cycle-closing ones, which later make
            # the optimizer reject the block (as the paper does for Q5).
            connecting = [c for c in pending if c.aliases() <= joined]
            for condition in connecting:
                pending.remove(condition)
            tree = Join(tree, Scan(table, alias), tuple(connecting))
        assert not pending
        return tree


def parse_query(text: str, name: str = "query",
                udfs: UdfRegistry | None = None) -> QuerySpec:
    """Convenience one-shot parse."""
    return SqlParser(udfs).parse(text, name)
