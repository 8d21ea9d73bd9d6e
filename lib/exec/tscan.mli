(** Tscan — full sequential table scan (§4).

    The classical fallback: reads every data page once, evaluates the
    full restriction on every record, delivers immediately.  Its cost
    is flat and certain, which is exactly why it serves as the initial
    "guaranteed best" in Jscan's competition. *)

open Rdb_engine
open Rdb_storage

type t

val create : Table.t -> Cost.t -> Predicate.t -> t
(** The restriction must be bound. *)

val step : t -> Scan.step


val meter : t -> Cost.t
val examined : t -> int
(** Records looked at so far. *)
