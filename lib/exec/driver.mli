(** The one generic step driver.

    All drive loops — retrieval quanta, union/joint-scan completion
    runs, online repair, session grants — step a {!Scan.step} function
    through this module, so consecutive-fault bookkeeping and the
    fault-policy dispatch exist exactly once.  Callers keep the
    policy: what a fault *means* (retry with backoff, quarantine the
    index, fall back to Tscan, abandon the union, fail the repair) is
    strategy knowledge; counting and asking is not. *)

type decision =
  | Retry  (** step again; the faulted access will be re-attempted *)
  | Absorb
      (** the policy changed course (quarantined / fell back /
          abandoned); the step function now reflects the new course —
          keep stepping and reset the consecutive-fault count *)
  | Stop  (** give up; surface the failure to the caller *)

type policy = { on_fault : Rdb_storage.Fault.failure -> consec:int -> decision }
(** [consec] is the number of consecutive faults including this one
    (any successful step in between resets the run to zero). *)

type t

val make : (unit -> Scan.step) -> policy -> t

type progress =
  | Stepped of Scan.step  (** the step did not fault (never [Failed]) *)
  | Settled  (** the step faulted and the policy retried or absorbed it *)
  | Stopped of Rdb_storage.Fault.failure  (** the step faulted and the policy gave up *)

val step : t -> progress
(** One step under the policy.  A step either delivers or fails, so
    a delivered row always reaches the caller before any policy could
    swap in a fallback that re-covers it. *)

val drain :
  t -> on_row:(Rdb_data.Row.t -> unit) -> (unit, Rdb_storage.Fault.failure) result
(** Step to completion, handing each delivered row to [on_row].
    [Error f] when the policy stopped. *)

val clocked_loop :
  spent:(unit -> float) ->
  budget:float ->
  max_steps:int ->
  stop:(unit -> bool) ->
  step:(unit -> [ `Continue | `Finished ]) ->
  unit
(** The cost-clocked grant loop (session quanta): invoke [step] until
    [stop ()], until charged cost since entry reaches [budget], or
    until [max_steps] invocations.  All bounds are checked before
    each iteration — an already-spent budget grants zero steps. *)
