(** The Probabilistic Sampling Cloud Computation Auditing Protocol —
    Algorithm 1 and the surrounding challenge/response flow (§V-D).

    The DA (or the user) samples t sub-task indices; for each response
    it checks, in order:
    + the data signature (right data, right position — eq. 7),
    + the recomputation y_i = f_i(x_{p_i}),
    + the Merkle root reconstructed from the sibling path, whose rank
      proof must be for the sampled index among [n_tasks] leaves,
    and finally the server's signature on the committed root. *)

type commitment = {
  root : string;
  root_signature : Sc_ibc.Ibs.t;
  cs_id : string; (* who signed the root *)
  n_tasks : int;
}

val commitment_of_execution : Sc_compute.Executor.execution -> commitment

type challenge = {
  sample_indices : int list;
  warrant : Sc_ibc.Warrant.signed;
}

type failure =
  | Warrant_invalid
  | Missing_response of int
  | Signature_wrong of int (* IsSignatureWrong(τ) *)
  | Computing_wrong of int (* IsComputingWrong(τ) *)
  | Root_wrong of int (* IsRootWrong(R(τ)) *)
  | Root_signature_wrong
  | Transport_timeout of string
      (* the named peer exhausted its retry budget without answering *)
  | Transport_tampered of string
      (* retries exhausted and the channel to the peer kept mangling
         messages — detectable in-flight corruption *)

type verdict = { valid : bool; failures : failure list }

val pp_failure : Format.formatter -> failure -> unit

val is_transport_failure : failure -> bool
(** True for the channel-level blames ([Transport_timeout],
    [Transport_tampered]); false for every cryptographic check. *)

val make_challenge :
  drbg:Sc_hash.Drbg.t ->
  n_tasks:int ->
  samples:int ->
  warrant:Sc_ibc.Warrant.signed ->
  challenge
(** Samples distinct indices uniformly.  [samples] is clamped to
    [n_tasks]. *)

val respond :
  Sc_ibc.Setup.public ->
  now:float ->
  Sc_compute.Executor.execution ->
  challenge ->
  Sc_compute.Executor.response list option
(** Server side: checks the warrant (expiry included) and returns the
    sampled responses; [None] when the warrant is rejected. *)

val check_response :
  commitment -> index:int -> Sc_compute.Executor.response -> failure list
(** The non-signature checks of Algorithm 1 on the response to sampled
    index [index], in order: the recomputation ([Computing_wrong]), the
    position claim ([Signature_wrong]), and the root ([Root_wrong]).
    The root check requires [task_index = proof.index = index],
    [proof.total = n_tasks] and a proof that verifies against the
    committed root.  A missing read is [Signature_wrong].  Shared by
    {!check_sample} and {!Batch}. *)

val check_sample :
  Sc_ibc.Setup.public ->
  verifier_key:Sc_ibc.Setup.identity_key ->
  role:[ `Cs | `Da ] ->
  owner:string ->
  commitment:commitment ->
  index:int ->
  Sc_compute.Executor.response ->
  failure list
(** Algorithm 1 on one sample: the designated data signature
    ([Signature_wrong]), then {!check_response}.  Used by {!verify} and
    {!Noninteractive}. *)

val verify :
  Sc_ibc.Setup.public ->
  verifier_key:Sc_ibc.Setup.identity_key ->
  role:[ `Cs | `Da ] ->
  owner:string ->
  commitment ->
  challenge ->
  Sc_compute.Executor.response list ->
  verdict
(** Algorithm 1.  [role] selects which designated signature component
    the verifier can open (the DA uses [`Da]).  All sampled checks are
    run — the verdict accumulates every failure rather than stopping
    at the first, which the simulator uses for diagnosis. *)
