(* Wall-time and allocation benchmark of the engine.

     perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Builds the workload's catalog (timed, several times), repeats its
   pass of operations as often as fits the given seconds on the host
   the workload was tuned on (a fixed count), checks every output
   against an oracle outside the timed region, and prints a report
   whose last line is one JSON object: correctness, operations
   attempted and failed, and the metrics BENCHMARK.json declares — the
   end-to-end ones with [--trace 0], the per-layer ones with
   [--trace 1].  Exits 1 when a check fails, 2 on bad arguments.

     perfbench --selfcheck

   re-runs itself on every workload to show that equal seeds repeat
   the deterministic metrics exactly and different seeds give
   different inputs. *)

module Json = Rdb_util.Json
module Pool = Rdb_storage.Buffer_pool

let workloads : (module Workload.S) list =
  [ (module Range_scan); (module Sql_rw); (module Storm) ]

(* The seed each workload is tuned on, and the one held out for
   validating claims. *)
let default_seed = 1
let held_out_seed = 7

let find_workload name =
  List.find_opt (fun (module W : Workload.S) -> W.name = name) workloads

(* ---- declared metrics --------------------------------------------------- *)

let declared kind =
  let file = "BENCHMARK.json" in
  let text = In_channel.with_open_bin file In_channel.input_all in
  let json = Json.of_string text in
  match Option.bind (Json.member kind json) Json.to_list with
  | None -> failwith (file ^ ": no " ^ kind ^ " list")
  | Some items ->
      List.map
        (fun item ->
          match
            ( Option.bind (Json.member "name" item) Json.to_str,
              Option.bind (Json.member "unit" item) Json.to_str )
          with
          | Some n, Some u -> (n, u)
          | _ -> failwith (file ^ ": malformed " ^ kind ^ " entry"))
        items

(* Declared metrics with their values.  A declared per-layer metric the
   workload does not reach reads 0 and is listed; a computed metric
   that is not declared is a bug. *)
let metrics_json ~kind ~computed =
  let decl = declared kind in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n decl) then
        failwith ("metric not declared in BENCHMARK.json: " ^ n))
    computed;
  let unreached = List.filter (fun (n, _) -> not (List.mem_assoc n computed)) decl in
  if unreached <> [] then
    Printf.printf "not reached by this workload, reported as 0: %s\n"
      (String.concat " " (List.map fst unreached));
  Json.Obj
    (List.map
       (fun (n, u) ->
         let v = Option.value ~default:0.0 (List.assoc_opt n computed) in
         if not (Float.is_finite v) then failwith ("metric is not finite: " ^ n);
         (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
       decl)

(* ---- one run ------------------------------------------------------------- *)

let print_failures (m : Measure.t) =
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev m.Measure.failures)

let run (module W : Workload.S) ~seed ~seconds ~trace ~setups =
  let t_run = Measure.now_ns () in
  let passes = Workload.passes (module W) seconds in
  Printf.printf "workload %s, seed %d, %g s (%d passes), trace %b\n" W.name seed seconds
    passes trace;
  Printf.printf "machine: nproc %d, OCaml %s, %s, %d-bit\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.os_type Sys.word_size;
  let setups = Option.value setups ~default:W.setups in
  let cat, setup_s = Measure.setups ~count:setups (fun () -> W.setup ~seed) in
  let t = W.start ~seed cat in
  Printf.printf "inputs: %s\n%!" (W.inputs_digest t);
  let print_setups times =
    Printf.printf "setup: %s s\n"
      (String.concat " " (List.map (Printf.sprintf "%.3f") times))
  in
  (* One pass; with a tracer its pool is observed, and the meter marks
     around it are kept for the storage metrics. *)
  let marks = ref [] in
  let one_pass m tr =
    W.prepare t ~traced:(tr <> None);
    let p = Measure.new_pass m in
    match tr with
    | None -> W.pass t m p None
    | Some tr ->
        let pool = W.pool t in
        Pool.set_metrics pool (Some tr.Tracer.registry);
        let a = Tracer.mark tr pool in
        W.pass t m p (Some tr);
        marks := (a, Tracer.mark tr pool) :: !marks;
        Pool.set_metrics pool None
  in
  let untraced = Measure.create () in
  let checks, metrics =
    if not trace then begin
      let t0 = Measure.now_ns () in
      for _ = 1 to passes do
        one_pass untraced None
      done;
      Printf.printf "passes wall time: %.1f s, %.2f s a pass\n"
        (Measure.seconds_since t0)
        (Measure.seconds_since t0 /. float_of_int passes);
      (* more set-ups after the passes, so that setup_s samples the
         machine at both ends of the run *)
      let _, later = Measure.setups ~count:setups (fun () -> W.setup ~seed) in
      print_setups (setup_s @ later);
      ([], Measure.end_to_end untraced ~setup_s:(setup_s @ later))
    end
    else begin
      print_setups setup_s;
      (* untraced and traced passes alternate, so that both meet the
         same machine *)
      let tr = Tracer.create () in
      let traced = Measure.create () in
      let gc = ref (0.0, 0.0, 0.0, 0, 0) in
      for _ = 1 to max 1 (passes / 2) do
        one_pass untraced None;
        let g0 = Gc.quick_stat () in
        one_pass traced (Some tr);
        gc := Tracer.gc_add !gc g0 (Gc.quick_stat ())
      done;
      let ops = List.fold_left (fun n p -> n + p.Measure.ops) 0 traced.Measure.passes in
      let storage, storage_checks = Tracer.storage_metrics ~ops !marks in
      let coverage =
        float_of_int tr.Tracer.covered_ns /. (Measure.busy_s traced *. 1e9)
      in
      let own, own_checks = W.layers t tr in
      let rate m = fst (Measure.typical_rates m) in
      Printf.printf "tracing overhead: untraced %.1f op/s, traced %.1f op/s (%+.1f%%)\n"
        (rate untraced) (rate traced)
        (100.0 *. ((rate untraced /. rate traced) -. 1.0));
      Printf.printf "span coverage: %.1f%% of traced operation wall time\n"
        (100.0 *. coverage);
      untraced.Measure.attempted <- untraced.Measure.attempted + traced.Measure.attempted;
      untraced.Measure.failed <- untraced.Measure.failed + traced.Measure.failed;
      untraced.Measure.failures <- traced.Measure.failures @ untraced.Measure.failures;
      ( storage_checks @ own_checks,
        Tracer.retrieval_metrics tr @ storage @ Tracer.gc_metrics ~ops !gc @ own )
    end
  in
  let kind = if trace then "per_layer" else "end_to_end" in
  let metrics = metrics_json ~kind ~computed:metrics in
  (* a pass's median times stand for the run only if the passes did
     identical work; equal but for the rounding of meter differences *)
  let repeat =
    let c = (Measure.first_pass untraced).Measure.cost in
    List.for_all
      (fun p -> Float.abs (p.Measure.cost -. c) <= 1e-9 *. Float.abs c)
      untraced.Measure.passes
  in
  let checks =
    checks
    @ [
        ( Printf.sprintf "each of the %d passes charged the first pass's cost"
            (List.length untraced.Measure.passes),
          repeat );
      ]
  in
  List.iter (fun (what, ok) -> Printf.printf "check: %s: %b\n" what ok) checks;
  print_failures untraced;
  let first = Measure.first_pass untraced in
  Printf.printf "timed: %.1f s over %d passes (%s s)\n" (Measure.busy_s untraced)
    (List.length untraced.Measure.passes)
    (String.concat " "
       (List.rev_map
          (fun p -> Printf.sprintf "%.2f" (float_of_int p.Measure.busy_ns /. 1e9))
          untraced.Measure.passes));
  Printf.printf "samples per pass: %d operations, %d latency, %d first-row\n"
    first.Measure.ops
    (Measure.Samples.length first.Measure.latency_us)
    (Measure.Samples.length first.Measure.first_row_us);
  Printf.printf "run wall time: %.1f s\n" (Measure.seconds_since t_run);
  let correct = untraced.Measure.failed = 0 && List.for_all snd checks in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int untraced.Measure.attempted));
            ("failed", Json.Num (float_of_int untraced.Measure.failed));
            ("metrics", metrics);
          ]));
  if correct then 0 else 1

(* ---- self-consistency ---------------------------------------------------- *)

let child args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let lines =
    In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "")
  in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ ->
      let inputs =
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with [ "inputs:"; d ] -> Some d | _ -> None)
          lines
      in
      (Json.of_string last, Option.value ~default:"" inputs)
  | _ -> failwith ("child run failed: " ^ String.concat " " args)

(* Metrics that must repeat exactly: all but times, rates and the
   heap peak, by their declared unit. *)
let deterministic =
  let units = declared "end_to_end" @ declared "per_layer" in
  fun name ->
    not (List.mem (List.assoc name units) [ "s"; "us"; "ns"; "op/s"; "rows/s"; "MB" ])

let values json =
  let num key j = Option.bind (Json.member key j) Json.to_num in
  let metrics =
    match Json.member "metrics" json with Some (Json.Obj fs) -> fs | _ -> []
  in
  List.filter_map
    (fun (n, v) ->
      if deterministic n then Option.map (fun x -> (n, x)) (num "value" v) else None)
    metrics
  @ List.filter_map
      (fun k -> Option.map (fun x -> (k, x)) (num k json))
      [ "attempted"; "failed" ]

let selfcheck () =
  let ok = ref true in
  let expect what b =
    Printf.printf "%-60s %s\n%!" what (if b then "ok" else "FAILED");
    if not b then ok := false
  in
  List.iter
    (fun (module W : Workload.S) ->
      let args seed trace =
        [
          "--workload"; W.name; "--seed"; string_of_int seed; "--seconds"; "0";
          "--trace"; trace; "--setups"; "1";
        ]
      in
      let correct j = Option.bind (Json.member "correct" j) Json.to_bool = Some true in
      let a, da = child (args default_seed "0") in
      let b, db = child (args default_seed "0") in
      let c, dc = child (args held_out_seed "0") in
      let d, _ = child (args default_seed "1") and e, _ = child (args default_seed "1") in
      expect (W.name ^ ": both seeds pass the output check") (correct a && correct c);
      expect (W.name ^ ": equal seeds, equal inputs") (da = db);
      expect (W.name ^ ": different seeds, different inputs") (da <> dc);
      let repeat what x y =
        let ys = values y in
        let differ = List.filter (fun (n, v) -> List.assoc_opt n ys <> Some v) (values x) in
        expect
          (Printf.sprintf "%s: deterministic %s metrics repeat%s" W.name what
             (String.concat "" (List.map (fun (n, _) -> " [" ^ n ^ " differs]") differ)))
          (differ = [])
      in
      repeat "end-to-end" a b;
      expect (W.name ^ ": traced runs reconcile") (correct d && correct e);
      repeat "per-layer" d e)
    workloads;
  if !ok then 0 else 1

(* ---- command line ---------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref default_seed in
  let seconds = ref 10.0 and trace = ref 0 in
  let setups = ref None and self = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ( "--seconds",
        Arg.Set_float seconds,
        "S wall seconds of the passes on the host the workload was tuned on; sets \
         the number of passes (at least one)" );
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced run");
      ( "--setups",
        Arg.Int (fun n -> setups := Some n),
        "N timed set-ups before and again after the passes; setup_s is their median \
         (default: the workload's own count)" );
      ("--selfcheck", Arg.Set self, " check determinism and seed sensitivity");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  let bad msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> bad ("unexpected argument " ^ a)) usage with
  | Arg.Bad msg -> bad msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if !self then exit (selfcheck ());
  let w =
    match find_workload !workload with
    | Some w -> w
    | None ->
        bad
          (Printf.sprintf "unknown workload %S (one of: %s)" !workload
             (String.concat ", "
                (List.map (fun (module W : Workload.S) -> W.name) workloads)))
  in
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  if !seconds < 0.0 || Option.value !setups ~default:1 < 1 then
    bad "--seconds must be >= 0 and --setups >= 1";
  exit (run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~setups:!setups)
