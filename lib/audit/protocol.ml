module Ibs = Sc_ibc.Ibs
module Warrant = Sc_ibc.Warrant
module Merkle = Sc_merkle.Tree
module Executor = Sc_compute.Executor
module Task = Sc_compute.Task
module Signer = Sc_storage.Signer
module Telemetry = Sc_telemetry.Telemetry

let c_rounds = Telemetry.counter "audit.rounds"
let c_samples_drawn = Telemetry.counter "audit.samples_drawn"
let c_samples_checked = Telemetry.counter "audit.samples_checked"
let c_blocks_recomputed = Telemetry.counter "audit.blocks_recomputed"

type commitment = {
  root : string;
  root_signature : Ibs.t;
  cs_id : string;
  n_tasks : int;
}

let commitment_of_execution e =
  {
    root = Executor.root e;
    root_signature = Executor.root_signature e;
    cs_id = Executor.server_id e;
    n_tasks = List.length (Executor.service e);
  }

type challenge = { sample_indices : int list; warrant : Warrant.signed }

type failure =
  | Warrant_invalid
  | Missing_response of int
  | Signature_wrong of int
  | Computing_wrong of int
  | Root_wrong of int
  | Root_signature_wrong
  | Transport_timeout of string
  | Transport_tampered of string

type verdict = { valid : bool; failures : failure list }

let pp_failure fmt = function
  | Warrant_invalid -> Format.pp_print_string fmt "warrant invalid or expired"
  | Missing_response i -> Format.fprintf fmt "missing response for sample %d" i
  | Signature_wrong i -> Format.fprintf fmt "IsSignatureWrong(%d)" i
  | Computing_wrong i -> Format.fprintf fmt "IsComputingWrong(%d)" i
  | Root_wrong i -> Format.fprintf fmt "IsRootWrong(%d)" i
  | Root_signature_wrong -> Format.pp_print_string fmt "root signature invalid"
  | Transport_timeout peer ->
    Format.fprintf fmt "transport timeout: %s unresponsive" peer
  | Transport_tampered peer ->
    Format.fprintf fmt "transport tampering detected talking to %s" peer

let is_transport_failure = function
  | Transport_timeout _ | Transport_tampered _ -> true
  | Warrant_invalid | Missing_response _ | Signature_wrong _ | Computing_wrong _
  | Root_wrong _ | Root_signature_wrong ->
    false

let make_challenge ~drbg ~n_tasks ~samples ~warrant =
  Telemetry.with_span ~name:"audit.challenge" @@ fun () ->
  let samples = min samples n_tasks in
  Telemetry.add c_samples_drawn samples;
  let idx = Array.init n_tasks (fun i -> i) in
  for i = 0 to samples - 1 do
    let j = i + Sc_hash.Drbg.uniform_int drbg (n_tasks - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  { sample_indices = List.init samples (fun i -> idx.(i)); warrant }

(* Challenge / proof / verification each get their own span
   ([audit.challenge] / [audit.respond] / [audit.verify]) so the trace
   analyzer can attribute per-phase cost, the axis the auditing
   literature reports. *)
let respond pub ~now execution chal =
  Telemetry.with_span ~name:"audit.respond"
    ~attrs:[ "samples", string_of_int (List.length chal.sample_indices) ]
  @@ fun () ->
  if not (Warrant.verify pub ~now chal.warrant) then None
  else Some (List.map (Executor.respond execution) chal.sample_indices)

(* The non-signature part of Algorithm 1 for the response to sampled
   index [index]: recompute y_i (IsComputingWrong), check that the
   block is claimed at the requested position, and rebuild R*
   (IsRootWrong).  The root check binds the proof to the sample: its
   index must be [index] (as must the response's label) and its total
   the committed task count, so another task's honest response cannot
   be relabeled to answer this one. *)
let check_response commitment ~index (resp : Executor.response) =
  let request = resp.Executor.request in
  let data_failures =
    match resp.Executor.read with
    | None -> [ Signature_wrong index ]
    | Some { Sc_storage.Server.claimed; _ } ->
      Telemetry.incr c_blocks_recomputed;
      (match Task.eval request.Task.func claimed with
      | Some y when y = resp.Executor.result -> []
      | Some _ | None -> [ Computing_wrong index ])
      @
      if claimed.Sc_storage.Block.index <> request.Task.position then
        [ Signature_wrong index ]
      else []
  in
  let proof = resp.Executor.proof in
  let root_ok =
    resp.Executor.task_index = index
    && proof.Merkle.index = index
    && proof.Merkle.total = commitment.n_tasks
    && Merkle.verify_proof ~root:commitment.root
         ~leaf_payload:
           (Executor.leaf_payload ~result:resp.Executor.result
              ~position:request.Task.position)
         proof
  in
  if root_ok then data_failures else data_failures @ [ Root_wrong index ]

(* Algorithm 1 on one sample: the designated signature must cover the
   claimed (file, position, data) — IsSignatureWrong — then the
   non-signature checks. *)
let check_sample pub ~verifier_key ~role ~owner ~commitment ~index
    (resp : Executor.response) =
  Telemetry.incr c_samples_checked;
  let signature_failures =
    match resp.Executor.read with
    | Some { Sc_storage.Server.claimed; signed }
      when not (Signer.verify_block pub ~verifier_key ~role ~owner claimed signed)
      ->
      [ Signature_wrong index ]
    | Some _ | None -> []
  in
  signature_failures @ check_response commitment ~index resp

let verify pub ~verifier_key ~role ~owner commitment chal responses =
  Telemetry.incr c_rounds;
  Telemetry.with_span ~name:"audit.verify"
    ~attrs:[ "samples", string_of_int (List.length chal.sample_indices) ]
  @@ fun () ->
  (* Root commitment authenticity: Sig_CS(R). *)
  let root_failures =
    if
      Ibs.verify pub ~signer:commitment.cs_id
        ~msg:("root:" ^ commitment.root)
        commitment.root_signature
    then []
    else [ Root_signature_wrong ]
  in
  let by_index =
    List.fold_left
      (fun acc (r : Executor.response) -> (r.Executor.task_index, r) :: acc)
      [] responses
  in
  (* Per-sample recomputation and signature checks are independent:
     fan them out across the domain pool.  Failures keep the sample
     order of the challenge, so verdicts are identical at any domain
     count. *)
  let per_sample =
    Sc_parallel.parallel_map
      (fun i ->
        match List.assoc_opt i by_index with
        | None -> [ Missing_response i ]
        | Some resp ->
          check_sample pub ~verifier_key ~role ~owner ~commitment ~index:i resp)
      chal.sample_indices
  in
  let failures = root_failures @ List.concat per_sample in
  { valid = failures = []; failures }
