// Command pdbtool works with syslog-ng pattern database XML files the way
// syslog-ng's own pdbtool does, using the built-in patterndb engine. It
// closes the loop on Sequence-RTG's export path: the XML written by
// `seqrtg export -format patterndb` can be validated and exercised before
// promotion to production.
//
//	pdbtool test  -pdb FILE             validate every rule's test cases
//	pdbtool match -pdb FILE -program P  classify stdin messages
//	pdbtool dump  -pdb FILE             list rules per program
//	pdbtool journal dump FILE...        pretty-print store journal records
//	pdbtool archive ls|dump DIR         inspect a compressed log archive
//
// journal dump and archive are the odd ones out — they read
// Sequence-RTG's own on-disk state (journal files with either encoding,
// auto-detected per record, and compressed archive segments), for
// inspecting a database directory after a crash.
//
// The paper's review workflow relies on exactly these checks: "these test
// cases are used by syslog-ng to ensure that all the example messages
// match their pattern, and no other in the whole pattern database" (§III).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/syslogng"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "test":
		err = cmdTest(os.Args[2:])
	case "match":
		err = cmdMatch(os.Args[2:])
	case "dump":
		err = cmdDump(os.Args[2:])
	case "journal":
		err = cmdJournal(os.Args[2:])
	case "archive":
		err = cmdArchive(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pdbtool: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdbtool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pdbtool test|match|dump|journal|archive [flags]

  test    -pdb FILE              validate rule test cases (pdbtool test)
  match   -pdb FILE -program P   classify messages from stdin
  dump    -pdb FILE              list loaded rules
  journal dump FILE...           pretty-print store journal records (v1/v2 auto-detected)
  archive ls DIR                 list archive blocks (corrupt segments reported, not fatal)
  archive dump DIR [filters]     print archived records as JSON lines
          [-service S] [-pattern ID] [-from T] [-to T] [-limit N]`)
}

func load(path string) (*syslogng.DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db := syslogng.NewDB()
	if err := db.Load(f); err != nil {
		return nil, err
	}
	return db, nil
}

func cmdTest(args []string) error {
	fs := flag.NewFlagSet("test", flag.ExitOnError)
	pdb := fs.String("pdb", "", "pattern database XML file")
	fs.Parse(args)
	if *pdb == "" {
		return fmt.Errorf("-pdb is required")
	}
	db, err := load(*pdb)
	if err != nil {
		return err
	}
	conflicts := db.Validate()
	fmt.Printf("%d rules, %d programs\n", db.RuleCount(), len(db.Programs()))
	if len(conflicts) == 0 {
		fmt.Println("all test cases passed")
		return nil
	}
	for _, c := range conflicts {
		fmt.Printf("FAIL rule %s: %q: %s\n", c.RuleID, c.Message, c.Reason)
	}
	return fmt.Errorf("%d test case failures", len(conflicts))
}

func cmdMatch(args []string) error {
	fs := flag.NewFlagSet("match", flag.ExitOnError)
	pdb := fs.String("pdb", "", "pattern database XML file")
	program := fs.String("program", "", "program (service) name for plain lines")
	jsonIn := fs.Bool("json", false, `input is {"service":...,"message":...} JSON lines`)
	fs.Parse(args)
	if *pdb == "" {
		return fmt.Errorf("-pdb is required")
	}
	if *program == "" && !*jsonIn {
		return fmt.Errorf("-program is required for plain input")
	}
	db, err := load(*pdb)
	if err != nil {
		return err
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	out := json.NewEncoder(os.Stdout)
	matched, total := 0, 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		prog, msg := *program, line
		if *jsonIn {
			var rec struct {
				Service string `json:"service"`
				Message string `json:"message"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Message == "" {
				continue
			}
			prog, msg = rec.Service, rec.Message
		}
		total++
		type result struct {
			Program string            `json:"program"`
			Message string            `json:"message"`
			Matched bool              `json:"matched"`
			RuleID  string            `json:"rule_id,omitempty"`
			Values  map[string]string `json:"values,omitempty"`
		}
		res, ok := db.Match(prog, msg)
		r := result{Program: prog, Message: msg, Matched: ok}
		if ok {
			matched++
			r.RuleID = res.Rule.ID
			r.Values = res.Values
		}
		if err := out.Encode(r); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d/%d messages matched\n", matched, total)
	return nil
}

func cmdDump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	pdb := fs.String("pdb", "", "pattern database XML file")
	fs.Parse(args)
	if *pdb == "" {
		return fmt.Errorf("-pdb is required")
	}
	db, err := load(*pdb)
	if err != nil {
		return err
	}
	for _, prog := range db.Programs() {
		fmt.Printf("program %s:\n", prog)
		for _, rule := range db.Rules(prog) {
			for _, p := range rule.Patterns {
				fmt.Printf("  %s  %s\n", rule.ID, p.Source)
			}
		}
	}
	return nil
}
