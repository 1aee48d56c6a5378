module Ibs = Sc_ibc.Ibs
module Agg = Sc_ibc.Agg
module Executor = Sc_compute.Executor
module Signer = Sc_storage.Signer
module Block = Sc_storage.Block
module Telemetry = Sc_telemetry.Telemetry

let c_batch_rounds = Telemetry.counter "audit.batch.rounds"
let c_batch_jobs = Telemetry.counter "audit.batch.jobs"

type job = {
  owner : string;
  commitment : Protocol.commitment;
  challenge : Protocol.challenge;
  responses : Executor.response list;
}

let dvs_entry role job (resp : Executor.response) =
  match resp.Executor.read with
  | None -> None
  | Some { Sc_storage.Server.claimed; signed } ->
    Some
      {
        Agg.signer = job.owner;
        msg = Block.signing_message claimed;
        dvs = Signer.dvs_for role signed;
      }

let verify_jobs pub ~verifier_key ~role jobs =
  Telemetry.incr c_batch_rounds;
  Telemetry.add c_batch_jobs (List.length jobs);
  Telemetry.with_span ~name:"audit.batch_verify"
    ~attrs:[ "jobs", string_of_int (List.length jobs) ]
  @@ fun () ->
  (* Root commitment signatures across all jobs are checked with one
     batched multi-pairing equation; only when that fails are jobs
     re-checked individually to attribute blame. *)
  let root_sig_of job =
    ( job.commitment.Protocol.cs_id,
      "root:" ^ job.commitment.Protocol.root,
      job.commitment.Protocol.root_signature )
  in
  let root_failures =
    if Ibs.verify_batch pub (List.map root_sig_of jobs) then []
    else
      List.filter_map
        (fun job ->
          let signer, msg, s = root_sig_of job in
          if Ibs.verify pub ~signer ~msg s then None
          else Some Protocol.Root_signature_wrong)
        jobs
  in
  (* Per-job recompute/root/position checks are independent: fan the
     jobs out across the domain pool.  Signature material is only
     *collected* here; the aggregate equation below (and the
     sequential, deterministic blame fallback) is unchanged, and both
     failure and entry order match the sequential run exactly. *)
  let per_job =
    Sc_parallel.parallel_map
      (fun job ->
        let by_index =
          List.fold_left
            (fun acc (r : Executor.response) ->
              (r.Executor.task_index, r) :: acc)
            [] job.responses
        in
        List.map
          (fun i ->
            match List.assoc_opt i by_index with
            | None -> [ Protocol.Missing_response i ], None
            | Some resp ->
              let fs =
                Protocol.check_response job.commitment ~index:i resp
              in
              let entry =
                Option.map
                  (fun e -> job, resp, e)
                  (dvs_entry role job resp)
              in
              fs, entry)
          job.challenge.Protocol.sample_indices)
      jobs
  in
  let flat = List.concat per_job in
  let check_failures = List.concat_map fst flat in
  let entries = List.rev (List.filter_map snd flat) in
  (* One aggregate equation covers every sampled signature. *)
  let agg_entries = List.map (fun (_, _, e) -> e) entries in
  let blame_failures =
    if Agg.verify_batch pub ~verifier_key agg_entries then []
    else begin
      (* Attribute blame: re-check signatures individually. *)
      let blamed =
        List.filter_map
          (fun (job, (resp : Executor.response), _) ->
            match resp.Executor.read with
            | None -> None
            | Some { Sc_storage.Server.claimed; signed } ->
              if
                Signer.verify_block pub ~verifier_key ~role ~owner:job.owner
                  claimed signed
              then None
              else Some (Protocol.Signature_wrong resp.Executor.task_index))
          entries
      in
      (* A batch that fails aggregation but passes every individual
         check indicates an inconsistent aggregate (e.g. a mauled Σ):
         record it against the whole batch. *)
      if blamed = [] && root_failures = [] && check_failures = [] then
        [ Protocol.Root_signature_wrong ]
      else blamed
    end
  in
  let failures = root_failures @ check_failures @ blame_failures in
  { Protocol.valid = failures = []; failures }

(* Fold channel-level outcomes into a batch verdict: servers that
   never produced a usable audit round are blamed exactly like failed
   verifications, so the caller's decision logic does not change. *)
let flag_unresponsive verdict ~timed_out ~tampered =
  let extra =
    List.map (fun id -> Protocol.Transport_timeout id) timed_out
    @ List.map (fun id -> Protocol.Transport_tampered id) tampered
  in
  if extra = [] then verdict
  else
    {
      Protocol.valid = false;
      failures = extra @ verdict.Protocol.failures;
    }

let pairings_used pub ~verifier_key ~role jobs =
  let before = Sc_pairing.Tate.pairings_performed () in
  let verdict = verify_jobs pub ~verifier_key ~role jobs in
  verdict, Sc_pairing.Tate.pairings_performed () - before
