(* Fresh scratch directories for persistent caches, under [root] in the
   working directory.  Every directory is created new (creation fails
   if the path exists, so no run ever starts from another run's cache)
   and is removed on [remove] or, at the latest, when the process
   exits.  Forked pool workers leave through [Unix._exit], and the
   exit hook only acts in the process that created the directories. *)

let root = ".bench_tmp"
let owner = Unix.getpid ()
let created : string list ref = ref []
let counter = ref 0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh tag =
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr counter;
  let path =
    Filename.concat root (Printf.sprintf "%s-%d-%d" tag owner !counter)
  in
  Unix.mkdir path 0o700;
  created := path :: !created;
  path

let remove path =
  rm_rf path;
  created := List.filter (fun p -> p <> path) !created

let cleanup () =
  if Unix.getpid () = owner then begin
    List.iter rm_rf !created;
    created := [];
    (* left in place while another run still uses it *)
    try Unix.rmdir root with Unix.Unix_error _ -> ()
  end

let () = at_exit cleanup
