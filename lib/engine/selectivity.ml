open Rdb_btree
module Dist = Rdb_dist.Dist

(* Standard deviation attached to a descent estimate: 0 when exact,
   otherwise growing with the split level (each level multiplies the
   fanout uncertainty). *)
let uncertainty_of_estimate ~estimate ~cardinality ~exact ~split_level =
  if exact || cardinality = 0 then 0.0
  else begin
    (* The edge children of the split node contribute the error: about
       one child-load of entries per side, i.e. a relative error around
       1/k scaled by how high the split sits. *)
    let sel = estimate /. float_of_int cardinality in
    let level_factor = 0.25 *. float_of_int (Int.max 1 (split_level - 1)) in
    Rdb_util.Stats.clamp (sel *. level_factor) ~lo:0.0 ~hi:0.5
  end

(* Find an index whose leading key column is [col]. *)
let leading_index table col =
  List.find_opt
    (fun idx -> match idx.Table.key_columns with c :: _ -> c = col | [] -> false)
    (Table.indexes table)

let leaf_dist ?bins ?feedback table meter pred =
  let uncertain () = Dist.uniform ?bins () in
  match Predicate.columns pred with
  | [ col ] -> (
      match leading_index table col with
      | None -> uncertain ()
      | Some idx -> (
          let extraction = Range_extract.for_index pred idx in
          if not extraction.Range_extract.bounded then uncertain ()
          else begin
            let card = Btree.cardinality idx.Table.tree in
            if card = 0 then Dist.point ?bins 0.0
            else begin
              let r = Estimate.ranges idx.Table.tree meter extraction.Range_extract.ranges in
              (* Same (index, ranges) cells the initial stage learns
                 into: selectivity advice shares the corrections.
                 Exact descents are never corrected. *)
              let estimate =
                match feedback with
                | Some fb when not r.Estimate.exact ->
                    Feedback.correct fb ~name:idx.Table.idx_name
                      ~key:extraction.Range_extract.ranges r.Estimate.estimate
                | _ -> r.Estimate.estimate
              in
              let sel =
                Rdb_util.Stats.clamp (estimate /. float_of_int card) ~lo:0.0 ~hi:1.0
              in
              let sd =
                uncertainty_of_estimate ~estimate ~cardinality:card
                  ~exact:r.Estimate.exact ~split_level:r.Estimate.split_level
              in
              if sd <= 0.0 then Dist.point ?bins sel
              else Dist.bell ?bins ~mean:sel ~stddev:sd ()
            end
          end))
  | _ -> uncertain ()

let rec of_predicate ?bins ?feedback table meter pred =
  match pred with
  | Predicate.True -> Dist.point ?bins 1.0
  | Predicate.False -> Dist.point ?bins 0.0
  | Predicate.Not x -> Dist.neg (of_predicate ?bins ?feedback table meter x)
  | Predicate.And ts ->
      fold_op ?bins ?feedback table meter ~empty:1.0 ~op:(Dist.and_ ~corr:Dist.Unknown) ts
  | Predicate.Or ts ->
      fold_op ?bins ?feedback table meter ~empty:0.0 ~op:(Dist.or_ ~corr:Dist.Unknown) ts
  | Predicate.Cmp _ | Predicate.Cmp_col _ | Predicate.Between _ | Predicate.In_list _
  | Predicate.Is_null _ | Predicate.Is_not_null _ | Predicate.Like _ ->
      leaf_dist ?bins ?feedback table meter pred

and fold_op ?bins ?feedback table meter ~empty ~op = function
  | [] -> Dist.point ?bins empty
  | [ x ] -> of_predicate ?bins ?feedback table meter x
  | x :: rest ->
      List.fold_left
        (fun acc y -> op acc (of_predicate ?bins ?feedback table meter y))
        (of_predicate ?bins ?feedback table meter x)
        rest
