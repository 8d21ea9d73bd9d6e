(** Selectivity distributions for restrictions (paper §2 applied).

    Builds a {!Rdb_dist.Dist.t} for a bound restriction against a
    table: leaf predicates that an index can estimate get a bell (or a
    point, when the descent reached a leaf) around the descent-to-split
    estimate; everything else is fully uncertain (uniform); AND/OR/NOT
    combine under the unknown-correlation assumption.  The result is
    what the initial stage and competition reports use to reason about
    how uncertain a strategy's cost is. *)

open Rdb_storage

val of_predicate :
  ?bins:int -> ?feedback:Feedback.t -> Table.t -> Cost.t -> Predicate.t -> Rdb_dist.Dist.t
(** Selectivity distribution of a bound restriction.  Estimation node
    reads are charged to the meter.  When [feedback] is supplied,
    inexact leaf estimates are scaled by the factors the optimizer
    learned for the same (index, ranges) cells (DESIGN.md §13) —
    advice-only, like the distributions themselves. *)
