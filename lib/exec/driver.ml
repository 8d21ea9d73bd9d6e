(* The one generic step driver.

   Every execution loop in the system — Retrieval quanta, Uscan/Jscan
   completion runs, Repair quanta, Session grants — steps a
   [unit -> Scan.step] function through this module.  The driver owns
   the mechanics every loop used to reimplement: consecutive-fault
   counting and the dispatch to a caller-supplied fault policy.
   Policies stay with the callers (retrieval quarantines and falls
   back; union machinery abandons; repair gives up) because *what* to
   do about a fault is strategy knowledge — *when* to ask is not. *)

type decision =
  | Retry
  | Absorb
  | Stop

type policy = { on_fault : Rdb_storage.Fault.failure -> consec:int -> decision }

type t = {
  step_fn : unit -> Scan.step;
  policy : policy;
  mutable consec : int;  (* consecutive faults without a successful step *)
}

let make step_fn policy = { step_fn; policy; consec = 0 }

type progress =
  | Stepped of Scan.step
  | Settled
  | Stopped of Rdb_storage.Fault.failure

let step d =
  match d.step_fn () with
  | Scan.Failed f -> (
      d.consec <- d.consec + 1;
      match d.policy.on_fault f ~consec:d.consec with
      | Retry -> Settled
      | Absorb ->
          d.consec <- 0;
          Settled
      | Stop ->
          d.consec <- 0;
          Stopped f)
  | s ->
      d.consec <- 0;
      Stepped s

let drain d ~on_row =
  let rec loop () =
    match step d with
    | Stepped (Scan.Deliver (_, row)) ->
        on_row row;
        loop ()
    | Stepped (Scan.Continue | Scan.Failed _) | Settled -> loop ()
    | Stepped Scan.Done -> Ok ()
    | Stopped f -> Error f
  in
  loop ()

(* Cost-clocked grant loop: the shape Session used to duplicate for
   queries and repairs.  All three bounds are checked before each
   iteration (a spent budget grants zero steps), and [steps] counts
   [step] invocations — caller quanta, not scan steps. *)
let clocked_loop ~spent ~budget ~max_steps ~stop ~step =
  let start = spent () in
  let steps = ref 0 in
  let rec loop () =
    if stop () || spent () -. start >= budget || !steps >= max_steps then ()
    else begin
      incr steps;
      match step () with
      | `Continue -> loop ()
      | `Finished -> ()
    end
  in
  loop ()
