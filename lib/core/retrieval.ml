open Rdb_data
open Rdb_engine
open Rdb_exec
open Rdb_rid
open Rdb_storage

type config = {
  jscan : Jscan.config;
  speed_ratio : float;
  retry_limit : int;
      (** consecutive faulted quanta tolerated before a transient fault
          is escalated to the non-retriable policy *)
  bgr_enabled : bool;
      (** [false] drops the competitive background-refinement arms
          (index-only falls back to its foreground Sscan, sorted to its
          foreground Fscan) — the scheduler's graceful-degradation
          rung.  Tactics whose background is the sole row source are
          unaffected.  Rows and order are invariant *)
  cost_quota : float option;
      (** per-query cost ceiling, checked at quantum boundaries *)
  feedback_rate : float;
      (** learning rate for the table's cardinality-feedback store
          (DESIGN.md §13).  0. (the default) disables the loop
          entirely — no corrections, no observations, no events:
          byte-identical to a build without it.  Positive rates scale
          inexact descent estimates by learned factors and fold each
          completed scan's actual back in at [close].  Cost-only:
          rows and order are invariant under any rate *)
  metrics : Rdb_util.Metrics.t option;
      (** observation-only registry; per-retrieval aggregates are
          recorded at [close] *)
}

let default_config =
  {
    jscan = Jscan.default_config;
    speed_ratio = 1.0;
    retry_limit = 8;
    bgr_enabled = true;
    cost_quota = None;
    feedback_rate = 0.0;
    metrics = None;
  }

type request = {
  restriction : Predicate.t;
  env : Predicate.env;
  explicit_goal : Goal.t option;
  context : Goal.controlling_node option;
  order_by : string list;
  projection : string list option;
}

let request ?(env = []) ?explicit_goal ?context ?(order_by = []) ?projection restriction =
  { restriction; env; explicit_goal; context; order_by; projection }

type tactic_kind =
  | Static_tscan
  | Static_sscan
  | Static_fscan
  | Background_only
  | Fast_first_tactic
  | Sorted_tactic
  | Index_only_tactic
  | Union_tactic
  | Cancelled

let tactic_to_string = function
  | Static_tscan -> "static Tscan"
  | Static_sscan -> "static Sscan"
  | Static_fscan -> "static Fscan"
  | Background_only -> "background-only (Jscan)"
  | Fast_first_tactic -> "fast-first (Fgr borrows from Jscan)"
  | Sorted_tactic -> "sorted (Fscan + Jscan filter)"
  | Index_only_tactic -> "index-only (Sscan vs Jscan)"
  | Union_tactic -> "union (one scan per OR disjunct)"
  | Cancelled -> "cancelled (empty range)"

(* How the retrieval ended.  The stream API ([fetch] returning [None])
   does not distinguish these; the summary does, and the SQL executor
   turns anything but [Completed] into a reported error. *)
type status =
  | Completed
  | Cancelled_quota of { spent : float; quota : float }
  | Timed_out of { spent : float; deadline : float }
      (** a scheduler-imposed cost deadline cancelled the session at a
          grant boundary; delivered rows stand *)
  | Aborted of { fault : string }
      (** the heap itself was unreadable; no degradation path exists *)

let status_to_string = function
  | Completed -> "completed"
  | Cancelled_quota { spent; quota } ->
      Printf.sprintf "cancelled: cost quota exceeded (%.1f of %.1f)" spent quota
  | Timed_out { spent; deadline } ->
      Printf.sprintf "timed out: cost deadline exceeded (%.1f of %.1f)" spent deadline
  | Aborted { fault } -> Printf.sprintf "aborted: %s" fault

type summary = {
  rows_delivered : int;
  total_cost : float;
  cost_to_first_row : float option;
  tactic : tactic_kind;
  goal : Goal.t;
  goal_provenance : string;
  policy : string;  (** the composed fault-policy ladder (DESIGN.md §17) *)
  status : status;
  trace : Trace.event list;
}

type cursor = {
  table : Table.t;
  cfg : config;
  trace : Trace.t;
  tactic : tactic_kind;
  goal : Goal.t;
  goal_provenance : string;
  restriction : Predicate.t;  (** bound *)
  mutable tac : Tactic.t;
      (** the retrieval's only execution state: the composed tactic
          (DESIGN.md §17) that {!build} assembled for [tactic]; the
          Tscan fallback installs a new one *)
  fgr_meter : Cost.t;
  bgr_meter : Cost.t;
  est_meter : Cost.t;
  order_ids : int array;  (** requested order, as column positions *)
  mutable sorted_rows : (Rid.t * Row.t) list option;  (** materialized post-sort *)
  mutable presort : (Rid.t * Row.t) list;
      (** rows accumulated (reversed) while draining ahead of the sort *)
  mutable needs_sort : bool;
  ordered_by_index : bool;
      (** delivery order came from an index: a fault fallback must
          re-sort the remainder to keep the stream ordered *)
  feedback_pending : Scan.candidate list;
      (** inexact planned candidates awaiting an actual: paired with
          [Scan_completed] events at [close] and folded into the
          table's feedback store (empty unless [feedback_rate > 0.]) *)
  delivered_rids : (Rid.t, unit) Hashtbl.t;
  mutable exclude_delivered : bool;
      (** set at fault fallback: the replacement Tscan must not
          re-deliver rows the faulted scan already produced *)
  mutable driver : Driver.t option;
      (** the shared step driver stepping [tac]; installed by the
          first quantum (it closes over this record).
          Consecutive-fault counting lives in the driver *)
  mutable pending_bg : (Fault.failure -> unit) option;
      (** quarantine action for a fault surfaced by a background
          competitor this quantum; [None] means the fault is the
          foreground's *)
  mutable aborted : string option;
  mutable quota_hit : (float * float) option;
  mutable deadline_hit : (float * float) option;
      (** (spent, deadline): the scheduler cancelled this cursor at a
          grant boundary ({!note_deadline}) *)
  mutable delivered : int;
  mutable first_row_cost : float option;
  mutable closed : bool;
  mutable summary : summary option;
}

let total_cost c =
  Cost.total c.fgr_meter +. Cost.total c.bgr_meter +. Cost.total c.est_meter

(* ------------------------------------------------------------------ *)
(* Tactic selection                                                    *)
(* ------------------------------------------------------------------ *)

(* The candidates of [cands] on an index other than [cand]'s. *)
let other_than (cand : Scan.candidate) cands =
  List.filter (fun c -> c.Scan.idx.Table.idx_name <> cand.Scan.idx.Table.idx_name) cands

let covering_sscan_choice table (classified : Initial_stage.classified) =
  (* Cheapest self-sufficient scan, compared against Tscan. *)
  match classified.Initial_stage.self_sufficient with
  | [] -> None
  | ss ->
      let cost c = Cost_model.index_scan_cost c.Scan.idx ~entries:c.Scan.est in
      let best =
        List.fold_left (fun acc c -> if cost c < cost acc then c else acc) (List.hd ss) ss
      in
      if cost best <= Cost_model.tscan_cost table then Some best else None

(* The candidate whose key order a tactic delivers in: what [build]
   scans for the static Sscan and the Fscan kinds, and so the one
   [open_] must ask whether ORDER BY is already satisfied. *)
let order_lead table (classified : Initial_stage.classified) = function
  | Static_sscan -> covering_sscan_choice table classified
  | Static_fscan | Sorted_tactic -> classified.Initial_stage.order_index
  | Static_tscan | Background_only | Fast_first_tactic | Index_only_tactic | Union_tactic
  | Cancelled ->
      None

let decide table goal ~bgr ~order_by ~(classified : Initial_stage.classified) trace =
  let emit tactic reason =
    Trace.emit trace (Trace.Tactic_chosen { tactic = tactic_to_string tactic; reason });
    tactic
  in
  let cands = classified.Initial_stage.jscan_candidates in
  let best_ss = covering_sscan_choice table classified in
  let order_idx = classified.Initial_stage.order_index in
  match (goal, order_by, order_idx) with
  | Goal.Fast_first, _ :: _, Some oi
    when not (Table.index_covers oi.Scan.idx ~columns:(Predicate.columns oi.Scan.residual))
         || best_ss = None ->
      (* Order-providing fetch-needed index: sorted tactic if any other
         index can build a filter, else classical Fscan. *)
      if other_than oi cands = [] then
        emit Static_fscan "only the order-needed index is useful"
      else if not bgr then
        emit Static_fscan "background refinement disabled (overload degradation)"
      else emit Sorted_tactic "order-delivering Fscan with filter-delivering Jscan"
  | _ -> (
      match (best_ss, cands) with
      | Some ss, others when other_than ss others <> [] ->
          if not bgr then
            emit Static_sscan "background refinement disabled (overload degradation)"
          else emit Index_only_tactic "self-sufficient Sscan competes with Jscan"
      | Some _, _ -> emit Static_sscan "single useful self-sufficient index"
      | None, [] ->
          if classified.Initial_stage.union_candidates <> [] then
            emit Union_tactic "every OR disjunct has a usable index"
          else emit Static_tscan "no useful index"
      | None, _ :: _ -> (
          match goal with
          | Goal.Total_time -> emit Background_only "total-time with fetch-needed indexes"
          | Goal.Fast_first -> emit Fast_first_tactic "fast-first with fetch-needed indexes"))

(* Tactics whose background process competes with (or replaces) the
   foreground: they can quarantine a faulted competitor, and [close]
   reports their foreground and background spans separately. *)
let background_bearing = function
  | Background_only | Fast_first_tactic | Sorted_tactic | Index_only_tactic
  | Union_tactic ->
      true
  | Static_tscan | Static_sscan | Static_fscan | Cancelled -> false

(* ------------------------------------------------------------------ *)
(* Tactic construction                                                 *)
(* ------------------------------------------------------------------ *)

(* Foreground delivered-RID buffer capacity: overflow stops the
   fast-first foreground, or the index-only background. *)
let fgr_buffer_cap = 512

(* Stop the fast-first foreground once its wasted-fetch cost exceeds
   this fraction of the background's guaranteed best. *)
let fgr_waste_cap = 0.5

let prefer_fgr c = Cost.total c.fgr_meter <= Cost.total c.bgr_meter *. c.cfg.speed_ratio

(* A background competitor faulted this quantum: park its quarantine
   action for the fault policy (which decides retry vs quarantine) and
   surface the failure.  One helper for every background arm —
   bg-only, fast-first, sorted, index-only, and the union scan. *)
let bg_failed c quarantine f =
  c.pending_bg <- Some quarantine;
  Scan.Failed f

let tscan c =
  let t = Tscan.create c.table c.fgr_meter c.restriction in
  fun () -> Tscan.step t

let fscan c cand = Fscan.create c.table c.fgr_meter cand ~restriction:c.restriction

let jscan c candidates = Jscan.create c.table c.bgr_meter c.cfg.jscan c.trace ~candidates

(* A background Jscan as a first phase: [Done] once it settled. *)
let jscan_phase c j () =
  match Jscan.step j with
  | `Working -> Scan.Continue
  | `Faulted f -> bg_failed c (Jscan.quarantine j) f
  | `Finished _ -> Scan.Done

(* Figure 4's final stage over a sure RID list, skipping rows the
   foreground already delivered. *)
let final_stage c ~delivered rids =
  Trace.emit c.trace
    (Trace.Final_stage
       { rids = Array.length rids; filtered_delivered = Hashtbl.length delivered });
  let fs =
    Final_stage.create c.table c.bgr_meter ~rids ~restriction:c.restriction
      ~exclude:(fun rid -> Hashtbl.mem delivered rid)
  in
  fun () -> Final_stage.step fs

(* Successor thunk for [Tactic.then_]: the stage that follows a settled
   background — the final stage over its RID list (its trace event
   fires here, in the switch quantum), or a Tscan that skips delivered
   rows when the background recommended one. *)
let stage2 c ~delivered outcome () =
  match outcome () with
  | Jscan.Rid_list rids -> final_stage c ~delivered rids
  | Jscan.Recommend_tscan _ -> (
      let t = Tscan.create c.table c.bgr_meter c.restriction in
      fun () ->
        match Tscan.step t with
        | Scan.Deliver (rid, _) when Hashtbl.mem delivered rid -> Scan.Continue
        | s -> s)

(* Fast-first: the background Jscan is always advanced first (it is
   also the RID source); the foreground additionally borrows a RID when
   its spent cost lags the background's, until the buffer overflows,
   its wasted fetches exceed the competition cap, or the background
   completes — then the final stage.  The bg-step + borrow pairing
   stays one arm on purpose: §7's fast-first couples the two inside a
   single quantum, which a per-quantum [Tactic.race] cannot express —
   the one deliberate exception noted in DESIGN.md §17. *)
let fast_first c j =
  let delivered = Hashtbl.create 64 in
  let active = ref true and wasted = ref 0 in
  let stop reason =
    active := false;
    Trace.emit c.trace (Trace.Foreground_stopped { reason })
  in
  let borrow () =
    match Jscan.borrow j with
    | None -> Scan.Continue
    | Some rid when Hashtbl.mem delivered rid -> Scan.Continue
    | Some rid -> (
        (* A faulted borrowed fetch is reported as a *foreground* heap
           fault; the borrowed RID is not replayed, which is safe — any
           true result row it names is still owed by the final stage
           (or the Tscan fallback), which excludes only delivered
           rows. *)
        match Heap_file.fetch (Table.heap c.table) c.fgr_meter rid with
        | exception Fault.Injected f -> Scan.Failed f
        | None -> Scan.Continue
        | Some row when Predicate.eval c.restriction (Table.schema c.table) row ->
            Hashtbl.replace delivered rid ();
            if Hashtbl.length delivered >= fgr_buffer_cap then
              stop "foreground buffer overflow";
            Scan.Deliver (rid, row)
        | Some _ ->
            incr wasted;
            let wasted_cost =
              float_of_int !wasted *. Cost.default_weights.Cost.physical_read
            in
            if wasted_cost > fgr_waste_cap *. Jscan.guaranteed_best j then
              stop "wasted fetches exceed competition cap";
            Scan.Continue)
  in
  Tactic.then_
    (fun () ->
      match Jscan.step j with
      | `Faulted f -> bg_failed c (Jscan.quarantine j) f
      | `Finished _ ->
          if !active then stop "background completed";
          Scan.Done
      | `Working -> if !active && prefer_fgr c then borrow () else Scan.Continue)
    (stage2 c ~delivered (fun () -> Option.get (Jscan.outcome j)))

(* Sorted: the foreground Fscan is the only deliverer; the background
   Jscan builds a filter for it while its cost lags (§3 race). *)
let sorted c fg j =
  let bgr_active = ref true in
  Tactic.race
    ~choose:(fun () -> if !bgr_active && not (prefer_fgr c) then `Right else `Left)
    ~left:(fun () ->
      match Fscan.step fg with
      | Scan.Done ->
          if !bgr_active then begin
            bgr_active := false;
            Trace.emit c.trace
              (Trace.Background_stopped { reason = "foreground finished first" })
          end;
          Scan.Done
      | s -> s)
    ~right:(fun () ->
      match Jscan.step j with
      | `Faulted f -> bg_failed c (Jscan.quarantine j) f
      | `Working -> Scan.Continue
      | `Finished outcome ->
          bgr_active := false;
          (match outcome with
          | Jscan.Rid_list rids -> Fscan.set_filter fg (Filter.of_sorted_array rids)
          | Jscan.Recommend_tscan _ -> ());
          Scan.Continue)

(* Index-only: the self-sufficient Sscan delivers; the Jscan competes
   for a sure list whose final stage preempts the Sscan mid-flight. *)
let index_only c (cand : Scan.candidate) j =
  let s = Sscan.create c.table c.fgr_meter cand ~restriction:c.restriction in
  let delivered = Hashtbl.create 64 in
  let bgr_active = ref true and sure_list = ref None in
  let stop_bgr reason =
    bgr_active := false;
    Trace.emit c.trace (Trace.Background_stopped { reason })
  in
  Tactic.preempt
    (fun () -> !sure_list)
    (Tactic.race
       ~choose:(fun () -> if !bgr_active && not (prefer_fgr c) then `Right else `Left)
       ~left:(fun () ->
         match Sscan.step s with
         | Scan.Deliver (rid, _) as step ->
             Hashtbl.replace delivered rid ();
             (* Foreground buffer overflow: the safer Sscan wins, Jscan
                terminates (§7 index-only). *)
             if Hashtbl.length delivered >= fgr_buffer_cap && !bgr_active then
               stop_bgr "foreground buffer overflow; Sscan is the safer strategy";
             step
         | step -> step)
       ~right:(fun () ->
         match Jscan.step j with
         | `Faulted f -> bg_failed c (Jscan.quarantine j) f
         | `Working -> Scan.Continue
         | `Finished (Jscan.Recommend_tscan _) ->
             stop_bgr "Jscan found no competitive list";
             Scan.Continue
         | `Finished (Jscan.Rid_list rids) ->
             bgr_active := false;
             (* Is the "sure" RID-list retrieval cheaper than finishing
                the Sscan? *)
             let remaining =
               Float.max 0.0 (cand.Scan.est -. float_of_int (Sscan.delivered s))
             in
             let sscan_rest = Cost_model.index_scan_cost cand.Scan.idx ~entries:remaining in
             let list_cost = Cost_model.rid_fetch_cost c.table ~k:(Array.length rids) in
             if list_cost < sscan_rest then begin
               Trace.emit c.trace
                 (Trace.Foreground_stopped
                    { reason = "Jscan delivered a small sure list; Sscan abandoned" });
               sure_list := Some (final_stage c ~delivered rids)
             end;
             Scan.Continue))

(* The one builder: a tactic kind's scans, created and composed from
   Tactic combinators (DESIGN.md §17) — phase sequencing ([then_]: the
   background settles, then the final stage), cost competition
   ([race]: the §3 foreground/background switch), and mid-flight
   takeover ([preempt]: index-only's sure list replacing the Sscan).
   Per-arm state lives in the arms' closures.  [lead] is the kind's
   {!order_lead}: [decide] only picks the static Sscan with a covering
   choice, and the Fscan kinds with an order index. *)
let build c (classified : Initial_stage.classified) ~lead = function
  | Cancelled -> Tactic.halt
  | Static_tscan -> tscan c
  | Static_sscan ->
      let s = Sscan.create c.table c.fgr_meter (Option.get lead) ~restriction:c.restriction in
      fun () -> Sscan.step s
  | Static_fscan ->
      let f = fscan c (Option.get lead) in
      fun () -> Fscan.step f
  | Background_only ->
      let j = jscan c classified.Initial_stage.jscan_candidates in
      Tactic.then_ (jscan_phase c j)
        (stage2 c ~delivered:(Hashtbl.create 0) (fun () -> Option.get (Jscan.outcome j)))
  | Fast_first_tactic -> fast_first c (jscan c classified.Initial_stage.jscan_candidates)
  | Sorted_tactic ->
      let oi = Option.get lead in
      (* The background Jscan builds a *filter*: it competes against
         the foreground Fscan's remaining cost (scan plus one fetch per
         in-range entry), not against a Tscan. *)
      let fscan_cost =
        Cost_model.index_scan_cost oi.Scan.idx ~entries:oi.Scan.est
        +. Cost_model.key_order_fetch_cost c.table oi.Scan.idx ~entries:oi.Scan.est
      in
      let cfg =
        {
          c.cfg.jscan with
          Jscan.filter_only = true;
          initial_guaranteed_best = Some fscan_cost;
        }
      in
      let j =
        Jscan.create c.table c.bgr_meter cfg c.trace
          ~candidates:(other_than oi classified.Initial_stage.jscan_candidates)
      in
      sorted c (fscan c oi) j
  | Index_only_tactic ->
      let cand = Option.get (covering_sscan_choice c.table classified) in
      let j = jscan c (other_than cand classified.Initial_stage.jscan_candidates) in
      index_only c cand j
  | Union_tactic ->
      let cfg =
        {
          Uscan.default_config with
          Uscan.switch_ratio = c.cfg.jscan.Jscan.switch_ratio;
          memory_budget = c.cfg.jscan.Jscan.memory_budget;
        }
      in
      let u =
        Uscan.create c.table c.bgr_meter cfg c.trace
          ~disjuncts:classified.Initial_stage.union_candidates
      in
      Tactic.then_
        (fun () ->
          match Uscan.step u with
          | `Working -> Scan.Continue
          | `Faulted f -> bg_failed c (Uscan.abandon u) f
          | `Finished _ -> Scan.Done)
        (stage2 c ~delivered:(Hashtbl.create 0) (fun () ->
             match Option.get (Uscan.outcome u) with
             | Uscan.Rid_list rids -> Jscan.Rid_list rids
             | Uscan.Recommend_tscan r -> Jscan.Recommend_tscan r))

(* ------------------------------------------------------------------ *)
(* Cursor API                                                          *)
(* ------------------------------------------------------------------ *)

let needed_columns table (req : request) restriction =
  let projection =
    match req.projection with
    | Some cols -> cols
    | None -> List.map (fun c -> c.Schema.name) (Schema.columns (Table.schema table))
  in
  let all = projection @ Predicate.columns restriction @ req.order_by in
  List.sort_uniq compare all

(* The optimization goal when neither OPTIMIZE FOR nor the context
   names one (§4). *)
let default_goal = Goal.Total_time

(* What planning knew about the useful indexes when it chose no index
   at all: the range was cancelled, or planning itself faulted. *)
let no_indexes =
  {
    Initial_stage.jscan_candidates = [];
    self_sufficient = [];
    order_index = None;
    union_candidates = [];
    estimation_nodes = 0;
  }

let open_ ?(config = default_config) table (req : request) =
  let trace = Trace.create () in
  Trace.emit trace (Trace.Span_begin { span = "plan" });
  let est_meter = Cost.create () in
  let restriction = Predicate.simplify (Predicate.bind req.restriction req.env) in
  let goal, goal_provenance =
    Goal.resolve ?explicit:req.explicit_goal ?context:req.context ~default:default_goal ()
  in
  let schema = Table.schema table in
  let order_ids = Array.of_list (List.map (Schema.index_of schema) req.order_by) in
  (* The cursor for a chosen tactic, its tactic built (which may run a
     clustering probe, so it belongs to planning). *)
  let cursor_for tactic (classified : Initial_stage.classified) =
    (* Ordered iff driven by an order-providing index: the very
       candidate [build] scans. *)
    let lead = order_lead table classified tactic in
    let ordered_by_index =
      Option.fold ~none:false
        ~some:(fun (cand : Scan.candidate) ->
          Table.index_provides_order cand.Scan.idx ~order:req.order_by)
        lead
    in
    (* Candidates a completed scan can later teach from: the inexact
       ones (exact estimates have nothing to learn). *)
    let feedback_pending =
      if config.feedback_rate > 0.0 then
        List.filter
          (fun cand -> not cand.Scan.est_exact)
          (classified.Initial_stage.jscan_candidates
          @ classified.Initial_stage.union_candidates)
      else []
    in
    let c =
      {
        table;
        cfg = config;
        trace;
        tactic;
        goal;
        goal_provenance;
        restriction;
        tac = Tactic.halt;
        fgr_meter = Cost.create ();
        bgr_meter = Cost.create ();
        est_meter;
        order_ids;
        sorted_rows = None;
        presort = [];
        needs_sort = req.order_by <> [] && not ordered_by_index;
        ordered_by_index;
        feedback_pending;
        delivered_rids = Hashtbl.create 64;
        exclude_delivered = false;
        driver = None;
        pending_bg = None;
        aborted = None;
        quota_hit = None;
        deadline_hit = None;
        delivered = 0;
        first_row_cost = None;
        closed = false;
        summary = None;
      }
    in
    c.tac <- build c classified ~lead tactic;
    c
  in
  let c =
    if restriction = Predicate.False then cursor_for Cancelled no_indexes
    else
      try
        match
          Initial_stage.run table est_meter trace ~feedback_rate:config.feedback_rate
            ~restriction
            ~needed_columns:(needed_columns table req restriction)
            ~order_by:req.order_by
        with
        | Initial_stage.No_rows _ -> cursor_for Cancelled no_indexes
        | Initial_stage.Arranged classified ->
            let tactic =
              decide table goal ~bgr:config.bgr_enabled ~order_by:req.order_by ~classified
                trace
            in
            cursor_for tactic classified
      with Fault.Injected f ->
        (* Planning faulted (estimation descent, clustering probe).
           Estimates are advice: degrade to the plan that needs none. *)
        Trace.emit trace
          (Trace.Fault_detected { site = "planning"; fault = Fault.describe f });
        Trace.emit trace (Trace.Fallback_tscan { reason = "fault during planning" });
        Trace.emit trace
          (Trace.Tactic_chosen
             { tactic = tactic_to_string Static_tscan; reason = "fault during planning" });
        cursor_for Static_tscan no_indexes
  in
  Trace.emit trace (Trace.Span_end { span = "plan"; cost = Cost.total est_meter; rows = 0 });
  Trace.emit trace (Trace.Span_begin { span = "execute" });
  c

(* ------------------------------------------------------------------ *)
(* Degradation policies                                                *)
(* ------------------------------------------------------------------ *)

(* A non-retriable fault also feeds the table's health registry: the
   structure backing the faulted file is marked suspect (checksum
   mismatch) or quarantined (dead), so *later* queries stop planning
   with it instead of rediscovering the fault.  Spill and foreign
   files map to no structure and are skipped. *)
let note_structure_fault c (f : Fault.failure) =
  match Table.structure_of_file c.table f.Fault.file with
  | None -> ()
  | Some structure -> (
      let health = Table.health c.table in
      let now = Table.now c.table in
      let tr =
        match f.Fault.kind with
        | Fault.Corrupt -> Health.record_corrupt health ~now structure
        | Fault.Persistent | Fault.Transient | Fault.Spill_full ->
            Health.record_dead health ~now structure
      in
      match Table.note_transition c.table tr with
      | None -> ()
      | Some tr ->
          Trace.emit c.trace
            (Trace.Health_transition
               {
                 structure = tr.Health.tr_structure;
                 from_ = Health.state_to_string tr.Health.tr_from;
                 to_ = Health.state_to_string tr.Health.tr_to;
                 reason = tr.Health.tr_reason;
               }))

let fault_site c (f : Fault.failure) =
  (if Option.is_some c.pending_bg then "background " else "foreground ")
  ^ Fault.class_name f.Fault.class_

(* The i-th consecutive retry charges i physical reads to the faulted
   side's meter, so repeated faults both show up in the cost accounting
   and shift the foreground/background interleave away from the flaky
   device. *)
let penalize c f ~consec =
  let meter = if Option.is_some c.pending_bg then c.bgr_meter else c.fgr_meter in
  for _ = 1 to consec do
    Cost.charge_physical meter
  done;
  Trace.emit c.trace
    (Trace.Fault_retry { site = fault_site c f; attempt = consec; penalty = consec })

let quarantine c f ~consec:_ =
  match c.pending_bg with
  | Some quarantine_bg ->
      note_structure_fault c f;
      quarantine_bg f;
      Some Driver.Absorb
  | None -> None

let abort_heap c f ~consec:_ =
  match f.Fault.class_ with
  | Fault.Heap ->
      note_structure_fault c f;
      Trace.emit c.trace (Trace.Query_aborted { fault = Fault.describe f });
      c.aborted <- Some (Fault.describe f);
      Some Driver.Stop
  | Fault.Index | Fault.Spill | Fault.Other -> None

(* A foreground index path died: install the guaranteed-safe Tscan,
   skipping rows already delivered.  If delivery order came from the
   index, the already-delivered prefix holds the lowest keys, so
   sorting the remainder keeps the whole stream ordered. *)
let fallback_tscan c f ~consec:_ =
  note_structure_fault c f;
  Trace.emit c.trace (Trace.Fallback_tscan { reason = Fault.describe f });
  if c.ordered_by_index then c.needs_sort <- true;
  c.exclude_delivered <- true;
  c.tac <- tscan c;
  Some Driver.Absorb

(* Retrieval's degradation ladder as a Tactic.Policy stack, one rung
   per recourse, tried in order (DESIGN.md §17) — written once per
   tactic kind.  The driver owns consecutive-fault counting; the rungs
   own what the count means: bounded retry with deterministic backoff
   for transient faults, then quarantine (background-bearing tactics),
   abort (heap), or fallback (foreground index paths; a Tscan, and the
   empty tactic, only ever touch the heap).  Exactly one rung decides
   each fault, and a deciding escalation rung's first effect is feeding
   the health registry.  The rungs act on [target]; EXPLAIN's
   description builds them with no cursor, which is sound because
   building and describing a rung never runs it. *)
let rungs cfg kind (target : cursor option) =
  let on act f ~consec = act (Option.get target) f ~consec in
  let open Tactic.Policy in
  List.concat
    [
      [ bounded_retry ~limit:cfg.retry_limit ~penalize:(on penalize) ];
      (if background_bearing kind then [ rung ~name:"quarantine" (on quarantine) ]
       else []);
      [ rung ~name:"abort-heap" (on abort_heap) ];
      (match kind with
      | Static_tscan | Cancelled -> []
      | _ -> [ rung ~name:"tscan-fallback" (on fallback_tscan) ]);
    ]

let policy_description ?(config = default_config) kind =
  Tactic.Policy.describe (Tactic.Policy.stack (rungs config kind None))

let driver_of c =
  match c.driver with
  | Some d -> d
  | None ->
      (* [pending_bg] is only ever set on a path that returns
         [Failed], so clearing it before each step blames exactly that
         step's fault. *)
      let step () =
        c.pending_bg <- None;
        c.tac ()
      in
      let policy =
        Tactic.Policy.seal
          ~observe:(fun f ~consec:_ ->
            Trace.emit c.trace
              (Trace.Fault_detected { site = fault_site c f; fault = Fault.describe f }))
          (Tactic.Policy.stack (rungs c.cfg c.tactic (Some c)))
      in
      let d = Driver.make step policy in
      c.driver <- Some d;
      d

(* One quantum of raw progress: check the quota, then one tactic step
   under the fault policy — the unit the multi-query session scheduler
   interleaves by.  A delivered row is recorded (or, after a fallback,
   suppressed as already delivered) before any later fault policy
   could install a scan that re-covers it. *)
let quantum_raw c =
  if c.aborted <> None || c.quota_hit <> None || c.deadline_hit <> None then `Done
  else
    match c.cfg.cost_quota with
    | Some quota when total_cost c > quota ->
        Trace.emit c.trace (Trace.Quota_exceeded { spent = total_cost c; quota });
        c.quota_hit <- Some (total_cost c, quota);
        `Done
    | _ -> (
        match Driver.step (driver_of c) with
        | Driver.Stepped (Scan.Deliver (rid, _))
          when c.exclude_delivered && Hashtbl.mem c.delivered_rids rid ->
            `Working
        | Driver.Stepped (Scan.Deliver (rid, row)) ->
            Hashtbl.replace c.delivered_rids rid ();
            `Row (rid, row)
        | Driver.Stepped Scan.Done -> `Done
        | Driver.Stepped (Scan.Continue | Scan.Failed _) | Driver.Settled | Driver.Stopped _
          ->
            `Working)

(* One quantum in requested order: a delivered row, work without a
   row, or the end of the stream.  When the order needs a post-sort,
   rows are drained ahead of the sort (the SORT node that made this
   goal total-time in the first place) and handed out afterwards. *)
let step c =
  let r =
    if c.closed then `Done
    else if c.needs_sort then begin
      match c.sorted_rows with
      | Some (p :: rest) ->
          c.sorted_rows <- Some rest;
          `Row p
      | Some [] -> `Done
      | None -> (
          match quantum_raw c with
          | `Row p ->
              c.presort <- p :: c.presort;
              `Working
          | `Working -> `Working
          | `Done ->
              let arr = Array.of_list (List.rev c.presort) in
              c.presort <- [];
              Array.sort (fun (_, a) (_, b) -> Row.compare_at c.order_ids a b) arr;
              Cost.charge_cpu c.fgr_meter (Array.length arr);
              c.sorted_rows <- Some (Array.to_list arr);
              `Working)
    end
    else quantum_raw c
  in
  (match r with
  | `Row _ ->
      c.delivered <- c.delivered + 1;
      if c.first_row_cost = None then c.first_row_cost <- Some (total_cost c)
  | `Working | `Done -> ());
  r

(* The drive loop: pump quanta until a row arrives or the stream ends. *)
let rec next c =
  match step c with `Row p -> Some p | `Working -> next c | `Done -> None

let fetch c = match next c with Some (_, row) -> Some row | None -> None

(* Up to [limit] rows delivered in total, each mapped by [f]. *)
let collect c ~limit f =
  let rec loop acc =
    if c.delivered >= limit then List.rev acc
    else match next c with Some p -> loop (f p :: acc) | None -> List.rev acc
  in
  loop []

let drain_pairs c = collect c ~limit:max_int Fun.id
let spent = total_cost

let grant c ~budget ~max_steps ~stop ~on_row =
  let finished = ref false in
  Driver.clocked_loop
    ~spent:(fun () -> total_cost c)
    ~budget ~max_steps ~stop
    ~step:(fun () ->
      match step c with
      | `Row (_, row) ->
          on_row row;
          `Continue
      | `Working -> `Continue
      | `Done ->
          finished := true;
          `Finished);
  !finished

(* The scheduler's cooperative cancellation point: called at a grant
   boundary when the session's cost deadline is spent.  The cursor
   stops producing (every later quantum reports done) and [close]
   reports the structured [Timed_out] status — never an exception, and
   the rows delivered before the deadline stand. *)
let note_deadline c ~deadline =
  if c.deadline_hit = None && c.summary = None then begin
    let spent = total_cost c in
    Trace.emit c.trace (Trace.Deadline_exceeded { spent; deadline });
    c.deadline_hit <- Some (spent, deadline)
  end

let rows_delivered c = c.delivered
let tactic c = c.tactic

(* Bucket ladder for the estimate-vs-actual error factor (always >= 1;
   a factor of 1 is a perfect estimate). *)
let error_buckets = [| 1.0; 1.25; 1.5; 2.0; 4.0; 8.0; 16.0 |]

(* An [Estimated] event paired with its index's completed scans. *)
type estimate_pair = {
  index : string;
  estimate : float;
  exact : bool;
  estimations : int;  (** [Estimated] events for [index] in the trace *)
  scans : int list;  (** [Scan_completed] counts for [index], latest first *)
}

(* The one pass pairing the trace's descent estimates with completed
   scans of the same index, in [Estimated] order. *)
let pair_estimates events =
  let estimated = Hashtbl.create 4 and completed = Hashtbl.create 4 in
  List.iter
    (function
      | Trace.Estimated { index; _ } -> Hashtbl.add estimated index ()
      | Trace.Scan_completed { index; scanned; _ } -> Hashtbl.add completed index scanned
      | _ -> ())
    events;
  List.filter_map
    (function
      | Trace.Estimated { index; estimate; exact; _ } ->
          Some
            {
              index;
              estimate;
              exact;
              estimations = List.length (Hashtbl.find_all estimated index);
              scans = Hashtbl.find_all completed index;
            }
      | _ -> None)
    events

(* Per-estimate error factor against the index's latest completed scan:
   max(est/actual, actual/est). *)
let estimate_errors pairs =
  List.filter_map
    (fun p ->
      match p.scans with
      | scanned :: _ ->
          let actual = Float.max 1.0 (float_of_int scanned) in
          let est = Float.max 1.0 p.estimate in
          Some (Float.max (est /. actual) (actual /. est))
      | [] -> None)
    pairs

let is_switch_point = function
  | Trace.Foreground_stopped _ | Trace.Background_stopped _ | Trace.Use_tscan _
  | Trace.Simultaneous_winner _ | Trace.Scan_discarded _ ->
      true
  | _ -> false

let is_degradation = function
  | Trace.Index_quarantined _ | Trace.Fallback_tscan _ | Trace.Query_aborted _
  | Trace.Quota_exceeded _ | Trace.Deadline_exceeded _ ->
      true
  | _ -> false

(* Close the feedback loop (DESIGN.md §13): pair each inexact planned
   candidate with the completed scan of the same index and fold the
   (estimate, actual) observation into the table's feedback store.
   Completed scans are the only observation source — [Scan_completed]
   fires only when a range walk ran to end-of-range, so [scanned] is
   the true range cardinality; discarded or truncated scans teach
   nothing.  An index appearing more than once on either side (union
   disjuncts can share an index) is skipped as ambiguous. *)
let feed_back c pairs =
  let rate = c.cfg.feedback_rate in
  let names = List.map (fun cand -> cand.Scan.idx.Table.idx_name) c.feedback_pending in
  let unique name = List.length (List.filter (String.equal name) names) = 1 in
  let observed = ref 0 in
  List.iter
    (fun cand ->
      let name = cand.Scan.idx.Table.idx_name in
      if unique name then
        (* Teach only from a real announced descent (the pessimistic
           whole-index default after an estimation shortcut emits no
           [Estimated] event and must not skew the cell) that is
           inexact (exact cells have nothing to learn), paired with
           exactly one completed walk. *)
        match List.find_opt (fun p -> String.equal p.index name) pairs with
        | Some { estimate = est; exact = false; estimations = 1; scans = [ scanned ]; _ } ->
            Feedback.observe (Table.feedback c.table) ~rate ~name ~key:cand.Scan.ranges ~est
              ~actual:(float_of_int scanned);
            incr observed
        | _ -> ())
    c.feedback_pending;
  match c.cfg.metrics with
  | Some m when !observed > 0 ->
      let module M = Rdb_util.Metrics in
      M.add (M.counter m "feedback.observations") !observed;
      M.set (M.gauge m "feedback.cells")
        (float_of_int (Feedback.cells (Table.feedback c.table)))
  | _ -> ()

let record_metrics c events pairs =
  match c.cfg.metrics with
  | None -> ()
  | Some m ->
      let module M = Rdb_util.Metrics in
      let count name = M.incr (M.counter m name) in
      let add name n = if n > 0 then M.add (M.counter m name) n in
      let observe name v = M.observe (M.histogram m name) v in
      count "retrieval.count";
      count (M.labeled "retrieval.tactic" (tactic_to_string c.tactic));
      observe "retrieval.cost.total" (total_cost c);
      observe "retrieval.cost.foreground" (Cost.total c.fgr_meter);
      observe "retrieval.cost.background" (Cost.total c.bgr_meter);
      observe "retrieval.cost.estimation" (Cost.total c.est_meter);
      observe "retrieval.rows" (float_of_int c.delivered);
      add "retrieval.switch_points" (List.length (List.filter is_switch_point events));
      add "retrieval.faults"
        (List.length
           (List.filter (function Trace.Fault_detected _ -> true | _ -> false) events));
      add "retrieval.degradations" (List.length (List.filter is_degradation events));
      add "feedback.applied"
        (List.length
           (List.filter (function Trace.Feedback_applied _ -> true | _ -> false) events));
      List.iter
        (fun e -> M.observe (M.histogram ~buckets:error_buckets m "retrieval.estimate_error") e)
        (estimate_errors pairs)

let close c =
  match c.summary with
  | Some s -> s
  | None ->
      c.closed <- true;
      if background_bearing c.tactic then begin
        Trace.emit c.trace
          (Trace.Span_end
             { span = "foreground"; cost = Cost.total c.fgr_meter; rows = c.delivered });
        Trace.emit c.trace
          (Trace.Span_end { span = "background"; cost = Cost.total c.bgr_meter; rows = 0 })
      end;
      Trace.emit c.trace
        (Trace.Span_end
           {
             span = "execute";
             cost = Cost.total c.fgr_meter +. Cost.total c.bgr_meter;
             rows = c.delivered;
           });
      Trace.emit c.trace
        (Trace.Retrieval_done { rows = c.delivered; cost = total_cost c });
      let status =
        match (c.aborted, c.quota_hit, c.deadline_hit) with
        | Some fault, _, _ -> Aborted { fault }
        | None, Some (spent, quota), _ -> Cancelled_quota { spent; quota }
        | None, None, Some (spent, deadline) -> Timed_out { spent; deadline }
        | None, None, None -> Completed
      in
      let events = Trace.events c.trace in
      let learning = c.cfg.feedback_rate > 0.0 && c.feedback_pending <> [] in
      let pairs =
        if learning || Option.is_some c.cfg.metrics then pair_estimates events else []
      in
      if learning then feed_back c pairs;
      record_metrics c events pairs;
      let s =
        {
          rows_delivered = c.delivered;
          total_cost = total_cost c;
          cost_to_first_row = c.first_row_cost;
          tactic = c.tactic;
          goal = c.goal;
          goal_provenance = c.goal_provenance;
          policy = policy_description ~config:c.cfg c.tactic;
          status;
          trace = events;
        }
      in
      c.summary <- Some s;
      s

let run ?config ?limit table req =
  let c = open_ ?config table req in
  let rows = collect c ~limit:(Option.value limit ~default:max_int) snd in
  (rows, close c)
