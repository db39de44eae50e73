// Command loggen generates synthetic log streams and datasets for
// exercising Sequence-RTG.
//
// Two modes:
//
//	loggen workload -n 100000 [-services 241] [-seed 1]
//	    emits a JSON-lines {service, message} stream modelled on the
//	    multi-service traffic of the paper's speed experiment (Fig 5).
//
//	loggen loghub -dataset HDFS [-n 2000] [-view raw|content|pre] [-labels]
//	    emits one of the sixteen synthetic LogHub stand-ins used by the
//	    accuracy experiments (Tables II and III). With -labels each line
//	    is prefixed by its ground-truth event id and a tab.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/loghub"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "workload":
		err = cmdWorkload(os.Args[2:])
	case "loghub":
		err = cmdLoghub(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "loggen: unknown mode %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loggen:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: loggen workload|loghub [flags]

  workload  -n N [-services S] [-events E] [-seed SEED] [-target URL -rate R [-framing newline|octet]]
  loghub    -dataset NAME [-n N] [-view raw|content|pre] [-labels] [-seed SEED]

datasets: `+strings.Join(loghub.Names(), ", "))
}

func cmdWorkload(args []string) error {
	fs := flag.NewFlagSet("workload", flag.ExitOnError)
	n := fs.Int("n", 100000, "number of records")
	services := fs.Int("services", 241, "number of services")
	events := fs.Int("events", 12, "mean events per service")
	seed := fs.Int64("seed", 1, "random seed")
	target := fs.String("target", "", "replay over the network instead of stdout: udp://host:port, tcp://host:port or http://host:port (a running `seqrtg serve`)")
	rate := fs.Int("rate", 0, "messages per second when replaying to -target (0 = unthrottled)")
	framing := fs.String("framing", "newline", "TCP syslog framing for -target tcp://: newline | octet")
	fs.Parse(args)

	gen := workload.New(workload.Config{Services: *services, EventsPerService: *events, Seed: *seed})
	if *target != "" {
		return replayTarget(gen, *target, *n, *rate, *framing)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	return gen.Stream(w, *n)
}

func cmdLoghub(args []string) error {
	fs := flag.NewFlagSet("loghub", flag.ExitOnError)
	dataset := fs.String("dataset", "", "dataset name (see loggen help)")
	n := fs.Int("n", loghub.DefaultLines, "number of lines")
	view := fs.String("view", "raw", "raw | content | pre")
	labels := fs.Bool("labels", false, "prefix each line with its event id and a tab")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)

	if *dataset == "" {
		return fmt.Errorf("-dataset is required; one of %s", strings.Join(loghub.Names(), ", "))
	}
	ds, err := loghub.Generate(*dataset, *n, *seed)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, l := range ds.Lines {
		var text string
		switch *view {
		case "raw":
			text = l.Raw
		case "content":
			text = l.Content
		case "pre":
			text = l.Preprocessed
		default:
			return fmt.Errorf("unknown view %q (want raw, content or pre)", *view)
		}
		if *labels {
			fmt.Fprintf(w, "%s\t%s\n", l.EventID, text)
		} else {
			fmt.Fprintln(w, text)
		}
	}
	return nil
}
