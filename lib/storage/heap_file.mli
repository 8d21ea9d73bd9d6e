(** Slotted-page heap file.

    Records are appended to pages of a fixed byte capacity; a record's
    RID is its (page, slot) address and never changes.  Every page
    access goes through the buffer pool, so sequential scans, random
    fetches, and clustering effects cost what they should. *)

open Rdb_data

type t

val create : ?page_bytes:int -> Buffer_pool.t -> t
(** [page_bytes] defaults to 8192. *)

val file_id : t -> int
val page_count : t -> int
val record_count : t -> int
(** Live (non-deleted) records. *)

val records_per_page : t -> int
(** Average live records per page (>= 1), for Yao-formula
    projections. *)

val insert : t -> Row.t -> Rid.t
(** Append; starts a new page when the current one is full. *)

val fetch : t -> Cost.t -> Rid.t -> Row.t option
(** Random fetch by RID.  Charges one page access.  [None] if deleted
    or out of range. *)

val delete : t -> Cost.t -> Rid.t -> bool
(** Tombstone the record; [false] if absent. *)

val update : t -> Cost.t -> Rid.t -> Row.t -> bool

(** {1 Sequential scan} *)

type cursor

val scan : t -> Cost.t -> cursor
(** Page-at-a-time sequential cursor; each new page charges one
    access. *)

val next : cursor -> (Rid.t * Row.t) option
(** Next live record in physical order. *)

val iter : t -> Cost.t -> (Rid.t -> Row.t -> unit) -> unit

val rewrite_corrupt_pages : t -> Cost.t -> int
(** The corrupt-page exit: evict the file (cold probe), read every
    page, and rewrite each one whose checksum verification fails —
    the crc is restamped from the live slot contents and the page
    write charged.  Returns the number of pages rewritten.  This is
    what [REPAIR TABLE] runs before its index logic, giving corrupt
    heap blocks the "until the page is rewritten" recovery that
    {!Fault} documents.  Transient and persistent faults are not
    healed here and propagate to the caller. *)
