// kvstore: a durable key-value store whose contents persist across process
// runs through an NVRAM image file — the paper's "restart and resume"
// scenario end to end, over arbitrary string keys and values (the
// byte-key API).
//
//	go run ./examples/kvstore set name alice
//	go run ./examples/kvstore set city "buenos aires"
//	go run ./examples/kvstore get name
//	go run ./examples/kvstore del name
//	go run ./examples/kvstore list
//
// State lives in kvstore.img in the working directory (override with
// -image). Each run loads the image (running recovery), applies one
// command, and saves the image back. Pass -pmem-file instead to back the
// store with an mmap'd file: no explicit load/save step at all — the file
// IS the NVRAM, recovery happens on open, and the store would survive even
// an abrupt kill mid-run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/logfree"
)

func main() {
	image := flag.String("image", "kvstore.img", "NVRAM image file")
	pmemFile := flag.String("pmem-file", "", "file-backed NVRAM (mmap; replaces the image load/save dance)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: kvstore [-image file | -pmem-file file] {set k v | get k | del k | list}")
		os.Exit(2)
	}

	// With -pmem-file New is open-or-recover: the mapping is the durable
	// state, so there is no image to load or save, and the runtime drops the
	// link-cache request — its deferred link persistence would need a clean
	// flush, which an abrupt kill never grants. An empty path is the
	// in-process device.
	opts := []logfree.Option{
		logfree.WithSize(32 << 20),
		logfree.WithMaxThreads(2),
		logfree.WithLinkCache(true),
		logfree.WithDevice(logfree.FileDevice(*pmemFile)),
	}

	var rt *logfree.Runtime
	var err error
	if _, serr := os.Stat(*image); *pmemFile == "" && serr == nil {
		rt, err = logfree.Load(*image, opts...)
	} else {
		rt, err = logfree.New(opts...)
	}
	if err != nil {
		log.Fatal(err)
	}
	store, err := rt.OpenOrCreate("kv", logfree.Spec{Buckets: 256})
	if err != nil {
		log.Fatal(err)
	}

	switch args[0] {
	case "set":
		if len(args) != 3 {
			log.Fatal("set needs key and value")
		}
		k, v := []byte(args[1]), []byte(args[2])
		existed := store.Contains(k)
		if err := store.Set(k, v); err != nil {
			log.Fatal(err)
		}
		if existed {
			fmt.Printf("overwrote %s = %s\n", k, v)
		} else {
			fmt.Printf("set %s = %s\n", k, v)
		}
	case "get":
		if len(args) != 2 {
			log.Fatal("get needs a key")
		}
		if v, ok := store.Get([]byte(args[1])); ok {
			fmt.Printf("%s = %s\n", args[1], v)
		} else {
			fmt.Printf("%s not found\n", args[1])
		}
	case "del":
		if len(args) != 2 {
			log.Fatal("del needs a key")
		}
		if store.Delete([]byte(args[1])) {
			fmt.Printf("deleted %s\n", args[1])
		} else {
			fmt.Printf("%s not found\n", args[1])
		}
	case "list":
		n := 0
		for k, v := range store.All() {
			fmt.Printf("%s = %s\n", k, v)
			n++
		}
		fmt.Printf("(%d keys)\n", n)
	default:
		log.Fatalf("kvstore: unknown command %q", args[0])
	}

	if *pmemFile != "" {
		if err := rt.Close(); err != nil { // flushes the mapping; no save step
			log.Fatal(err)
		}
		return
	}
	if err := rt.Save(*image); err != nil {
		log.Fatal(err)
	}
}
