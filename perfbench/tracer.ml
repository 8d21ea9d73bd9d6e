(* The traced run's spans and counts.

   Spans are recorded in the benchmark's own code, around calls into
   each layer's public functions; the engine itself reads no clock.  A
   span accumulates its wall nanoseconds, minor words and call count
   under its name.  Only outermost spans add to [covered_ns], the part
   of the timed operations the trace accounts for; layer probes, which
   run outside the timed operations, add nothing to it.  Plain counts
   live in [sums]. *)

open Rdb_exec
module R = Rdb_core.Retrieval
module M = Rdb_util.Metrics

type acc = { mutable ns : float; mutable words : float; mutable n : float }

type t = {
  spans : (string, acc) Hashtbl.t;
  sums : (string, float) Hashtbl.t;
  series : (string, Measure.Samples.t) Hashtbl.t;
  registry : M.t;
      (** attached to the retrieval config and the buffer pool during
          the traced passes *)
  mutable depth : int;
  mutable covered_ns : int;
}

let create () =
  {
    spans = Hashtbl.create 32;
    sums = Hashtbl.create 64;
    series = Hashtbl.create 8;
    registry = M.create ();
    depth = 0;
    covered_ns = 0;
  }

let get t name = Option.value ~default:0.0 (Hashtbl.find_opt t.sums name)
let add t name x = Hashtbl.replace t.sums name (get t name +. x)
let count t name n = add t name (float_of_int n)
let maximum t name x = Hashtbl.replace t.sums name (Float.max (get t name) x)

let sample t name x =
  match Hashtbl.find_opt t.series name with
  | Some s -> Measure.Samples.add s x
  | None ->
      let s = Measure.Samples.create () in
      Measure.Samples.add s x;
      Hashtbl.replace t.series name s

let percentile t name p =
  match Hashtbl.find_opt t.series name with
  | Some s -> Measure.Samples.percentile s p
  | None -> 0.0

(* The accumulator of a span name; resolve it once for a hot loop. *)
let acc t name =
  match Hashtbl.find_opt t.spans name with
  | Some a -> a
  | None ->
      let a = { ns = 0.0; words = 0.0; n = 0.0 } in
      Hashtbl.replace t.spans name a;
      a

let span_acc t a f =
  t.depth <- t.depth + 1;
  let v, ns, words =
    Fun.protect ~finally:(fun () -> t.depth <- t.depth - 1) (fun () -> Measure.timed f)
  in
  if t.depth = 0 then t.covered_ns <- t.covered_ns + ns;
  a.ns <- a.ns +. float_of_int ns;
  a.words <- a.words +. words;
  a.n <- a.n +. 1.0;
  v

let span t name f = span_acc t (acc t name) f

(* Run [f] outside the timed operations: its spans add no coverage. *)
let detached t f =
  let covered = t.covered_ns in
  Fun.protect ~finally:(fun () -> t.covered_ns <- covered) f

let probe t name f = detached t (fun () -> span t name f)

(* Account a duration measured by the caller as one span call. *)
let observe t name ns =
  let a = acc t name in
  a.ns <- a.ns +. float_of_int ns;
  a.n <- a.n +. 1.0

let span_opt tr name f = match tr with None -> f () | Some t -> span t name f

(* Quotient with an empty base reading as 0, as for a layer the
   workload never reaches. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let retrieval_config tr =
  match tr with
  | None -> R.default_config
  | Some t -> { R.default_config with R.metrics = Some t.registry }

(* ---- what one retrieval summary says about the exec layer ----------- *)

let note_summary t (s : R.summary) =
  count t "summaries" 1;
  count t "summary_rows" s.R.rows_delivered;
  count t "trace_events" (List.length s.R.trace);
  List.iter
    (function
      | Trace.Scan_started _ -> count t "scans_started" 1
      | Trace.Scan_discarded _ -> count t "scans_discarded" 1
      | Trace.Scan_completed { kept; scanned; _ } ->
          count t "jscan_kept" kept;
          count t "jscan_scanned" scanned
      | Trace.Final_stage { rids; filtered_delivered } ->
          count t "final_rids" rids;
          count t "final_dups" filtered_delivered
      | Trace.List_spilled _ -> count t "lists_spilled" 1
      | _ -> ())
    s.R.trace

let tactic_kinds =
  R.
    [
      Static_tscan;
      Static_sscan;
      Static_fscan;
      Background_only;
      Fast_first_tactic;
      Sorted_tactic;
      Index_only_tactic;
      Union_tactic;
      Cancelled;
    ]

let metric_name = function
  | R.Static_tscan -> "static_tscan"
  | R.Static_sscan -> "static_sscan"
  | R.Static_fscan -> "static_fscan"
  | R.Background_only -> "background_only"
  | R.Fast_first_tactic -> "fast_first"
  | R.Sorted_tactic -> "sorted"
  | R.Index_only_tactic -> "index_only"
  | R.Union_tactic -> "union"
  | R.Cancelled -> "cancelled"

let counter t name =
  match List.assoc_opt name (M.snapshot t.registry) with
  | Some (M.Counter n) -> float_of_int n
  | _ -> 0.0

let hist_sum t name =
  match List.assoc_opt name (M.snapshot t.registry) with
  | Some (M.Histogram { sum; _ }) -> sum
  | _ -> 0.0

(* Sum of every pool counter of one event, over all file labels. *)
let pool_events t event =
  let prefix = "pool." ^ event ^ "{" in
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | M.Counter n when String.starts_with ~prefix name -> acc + n
      | _ -> acc)
    0 (M.snapshot t.registry)

(* The core and exec metrics, per retrieval. *)
let retrieval_metrics t =
  let n = counter t "retrieval.count" in
  let per name = ratio name n in
  List.map
    (fun k ->
      ( "core.tactic_share." ^ metric_name k,
        per (counter t (M.labeled "retrieval.tactic" (R.tactic_to_string k))) ))
    tactic_kinds
  @ [
      ("core.cost_est_per_op", per (hist_sum t "retrieval.cost.estimation"));
      ("core.cost_fg_per_op", per (hist_sum t "retrieval.cost.foreground"));
      ("core.cost_bg_per_op", per (hist_sum t "retrieval.cost.background"));
      ("core.switch_points_per_op", per (counter t "retrieval.switch_points"));
      ("exec.trace_events_per_op", ratio (get t "trace_events") (get t "summaries"));
      ("exec.scans_started_per_op", ratio (get t "scans_started") (get t "summaries"));
      ( "exec.scan_discard_ratio",
        ratio (get t "scans_discarded") (get t "scans_started") );
      ("exec.jscan_keep_ratio", ratio (get t "jscan_kept") (get t "jscan_scanned"));
      ("exec.final_stage_dup_ratio", ratio (get t "final_dups") (get t "final_rids"));
      ("exec.lists_spilled_per_op", ratio (get t "lists_spilled") (get t "summaries"));
    ]

(* ---- storage: the pool's global meter over the traced operations ---- *)

module Cost = Rdb_storage.Cost
module Pool = Rdb_storage.Buffer_pool

type meter_mark = {
  physical : int;
  logical : int;
  writes : int;
  hits : int;
  misses : int;
  evictions : int;
}

let mark t pool =
  let g = Pool.global_meter pool in
  {
    physical = Cost.physical_reads g;
    logical = Cost.logical_reads g;
    writes = Cost.block_writes g;
    hits = pool_events t "hit";
    misses = pool_events t "miss";
    evictions = pool_events t "evict";
  }

(* Storage metrics summed over (start, end) mark pairs, plus the
   reconciliation of the pool's metric counters with its global
   meter. *)
let storage_metrics ~ops marks =
  let d f = float_of_int (List.fold_left (fun n (a, b) -> n + f b - f a) 0 marks) in
  let physical = d (fun m -> m.physical) and logical = d (fun m -> m.logical) in
  let per x = ratio x (float_of_int ops) in
  let metrics =
    [
      ("storage.physical_reads_per_op", per physical);
      ("storage.logical_reads_per_op", per logical);
      ("storage.hit_rate", ratio logical (logical +. physical));
      ("storage.block_writes_per_op", per (d (fun m -> m.writes)));
      ("storage.evictions_per_op", per (d (fun m -> m.evictions)));
    ]
  in
  let checks =
    [
      ("sum of pool.hit equals logical reads", d (fun m -> m.hits) = logical);
      ("sum of pool.miss equals physical reads", d (fun m -> m.misses) = physical);
    ]
  in
  (metrics, checks)

(* ---- the OCaml runtime over the traced passes ----------------------- *)

(* Minor, promoted and major words and minor and major collections,
   summed over the traced passes. *)
let gc_add (minor, promoted, major, minors, majors) (a : Gc.stat) (b : Gc.stat) =
  ( minor +. b.Gc.minor_words -. a.Gc.minor_words,
    promoted +. b.Gc.promoted_words -. a.Gc.promoted_words,
    major +. b.Gc.major_words -. a.Gc.major_words,
    minors + b.Gc.minor_collections - a.Gc.minor_collections,
    majors + b.Gc.major_collections - a.Gc.major_collections )

let gc_metrics ~ops (minor, promoted, major, minors, majors) =
  let per x = ratio x (float_of_int ops) in
  [
    ("gc.minor_words_per_op", per minor);
    ("gc.promoted_words_per_op", per promoted);
    ("gc.major_words_per_op", per major);
    ("gc.minor_collections", float_of_int minors);
    ("gc.major_collections", float_of_int majors);
  ]

(* Span totals: [scale] converts ns (1e-3 to us, 1 for ns). *)
let span_mean t name ~scale = let a = acc t name in ratio (a.ns *. scale) a.n
let span_words t name = let a = acc t name in ratio a.words a.n
let span_ns t name = (acc t name).ns
