# Total schematic specification with one concrete entry; the concrete
# entry doubles as a source of cut candidates during search.
const c.
c : forall x. A(x) -> A(x).
total.
variant-closed.
