(** Consistency checker: cross-validate each B+-tree index against the
    heap through the buffer pool.

    One heap pass builds the expected (key, rid) multiset per index;
    one full-range cursor walk per index then consumes it.  Every
    probe — heap pages, index descent, leaf chain, self-check node
    visits — is charged to the caller's meter, so checking competes
    for cache and shows up in cost accounting like any other work.

    Damage taxonomy per index:
    - {e missing}: heap rows whose entry the index walk never produced;
    - {e phantom}: index entries with no backing heap row;
    - {e structural}: ordering / fill / linkage violations from
      [Btree.self_check];
    - {e fault}: the walk itself faulted ([Fault.Injected] is caught
      and recorded — an unreadable index is damage, not a crash).

    Heap faults are {e not} caught: a checker cannot say anything
    without the ground truth, so [Fault.Injected] from the heap pass
    propagates to the caller. *)

type index_report = {
  ir_index : string;
  ir_entries : int;  (** entries the index walk produced *)
  ir_missing : int;  (** heap entries the index lacks *)
  ir_phantom : int;  (** index entries the heap lacks *)
  ir_structural : string option;  (** [Btree.self_check] violation *)
  ir_fault : string option;  (** walk faulted (index unreadable) *)
}

val clean : index_report -> bool
(** No missing/phantom entries, no structural violation, no fault. *)

type report = {
  table : string;
  heap_rows : int;
  indexes : index_report list;  (** in table index order *)
  cost : float;  (** cost charged for the whole check *)
}

val damaged : report -> index_report list
(** The indexes that failed {!clean}. *)

val run : ?meter:Rdb_storage.Cost.t -> Table.t -> report
(** Check every index of [table].  [meter] defaults to a throwaway
    meter; pass one to make the check's cost visible (e.g. a session
    quantum meter).
    @raise Rdb_storage.Fault.Injected if the heap itself is unreadable. *)

val damage_to_string : index_report -> string
(** ["clean"] or a semicolon-joined damage summary. *)

val report_to_string : report -> string
