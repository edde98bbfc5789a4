// Command hercules is a command-driven version of the Hercules task
// window (Fig. 9): it reads flow-construction commands from stdin (or a
// script file given as the first argument), maintains one current flow,
// and offers the browser, history, version and retrace operations of the
// paper through textual commands.
//
// Usage:
//
//	hercules            # interactive (reads stdin)
//	hercules script.hrc # run a command script
//	hercules -demo      # run the built-in demonstration script
//
// Execution robustness flags (applied to every "run"/"retrace"):
//
//	-policy failfast|continue  failure policy (default failfast)
//	-timeout <dur>             per-task timeout, e.g. 30s (default none)
//	-retries <n>               attempts per task (default 1 = no retry)
//	-retry-base <dur>          base backoff before the first retry
//	-memo <n>                  derivation-keyed result cache holding up to
//	                           n entries (0 = disabled, negative =
//	                           unbounded); warm re-runs skip tool execution
//	-workers <n>               worker-pool size for run/retrace dispatch
//	                           (default 1; results are identical at any
//	                           width)
//
// Observability flags:
//
//	-trace file.jsonl          stream run events (internal/trace) to a file
//	-metrics                   fold run events into a metrics registry and
//	                           print the exposition dump at exit (the
//	                           "metrics" command prints it any time)
//
// Type "help" for the command list.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/flow"
	"repro/internal/hercules"
	"repro/internal/history"
	"repro/internal/memo"
	"repro/internal/schema"
	"repro/internal/trace"
)

const demoScript = `
# Built-in demonstration: goal-based construction of a simulation flow.
catalog flows
start goal Performance
expand 1
expand 3
specialize 6 EditedNetlist
expand 6
show
bind 2 sim
bind 4 stim.exhaustive3
bind 7 netEd.fulladder
expand 5
bind 8 dmEd.default
show
run
browse type=Performance
history last
lisp
`

var (
	flagDemo      = flag.Bool("demo", false, "run the built-in demonstration script")
	flagPolicy    = flag.String("policy", "failfast", `failure policy: "failfast" or "continue"`)
	flagTimeout   = flag.Duration("timeout", 0, "per-task timeout (0 = none)")
	flagRetries   = flag.Int("retries", 1, "attempts per task (1 = no retry)")
	flagRetryBase = flag.Duration("retry-base", time.Millisecond, "base backoff delay before the first retry")
	flagMemo      = flag.Int("memo", 0, "derivation-keyed result cache: max entries (0 = disabled, negative = unbounded)")
	flagWorkers   = flag.Int("workers", 1, "worker-pool size for run/retrace dispatch")
	flagTrace     = flag.String("trace", "", "write a JSONL run-event trace to this file")
	flagMetrics   = flag.Bool("metrics", false, "collect run metrics and print the exposition dump at exit")
)

// configureEngine applies the robustness flags to the session: its
// run options and its engine's worker pool.
func configureEngine(s *hercules.Session) error {
	o := &s.Options
	switch *flagPolicy {
	case "failfast": // the default
	case "continue":
		p := exec.ContinueOnError
		o.Policy = &p
	default:
		return fmt.Errorf("-policy must be \"failfast\" or \"continue\", not %q", *flagPolicy)
	}
	if d := *flagTimeout; d > 0 {
		o.TaskTimeout = &d
	}
	if *flagRetries > 1 {
		o.Retry = &exec.RetryPolicy{MaxAttempts: *flagRetries, BaseDelay: *flagRetryBase}
	}
	if *flagMemo != 0 {
		o.Memo = memo.New(*flagMemo)
	}
	if *flagWorkers > 1 {
		s.Engine.SetWorkers(*flagWorkers)
	}
	return nil
}

func main() {
	flag.Parse()
	var in io.Reader = os.Stdin
	interactive := true
	if *flagDemo {
		in = strings.NewReader(demoScript)
		interactive = false
	} else if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
		interactive = false
	}
	cli := newCLI(os.Stdout)
	if err := configureEngine(cli.session); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var sinks []trace.Sink
	if *flagTrace != "" {
		tf, err := os.Create(*flagTrace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tw := trace.NewWriter(tf)
		sinks = append(sinks, tw)
		defer func() {
			if err := tw.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
			}
			tf.Close()
		}()
	}
	if *flagMetrics {
		cli.enableMetrics(sinks...)
		defer func() { fmt.Print(cli.metrics.Expose()) }()
	} else if len(sinks) == 1 {
		cli.session.Options.Tracer = sinks[0]
	}
	if err := cli.session.Bootstrap(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sc := bufio.NewScanner(in)
	if interactive {
		fmt.Print("hercules> ")
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !interactive && line != "" && !strings.HasPrefix(line, "#") {
			fmt.Printf("hercules> %s\n", line)
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := cli.exec(line); err != nil {
			fmt.Printf("error: %v\n", err)
		}
		if interactive {
			fmt.Print("hercules> ")
		}
	}
}

// cli holds the interpreter state: the session, the current flow, and
// the last-created instance (addressable as "last").
type cli struct {
	out     io.Writer
	session *hercules.Session
	flow    *flow.Flow
	last    history.ID
	metrics *trace.Metrics // non-nil when -metrics (or enableMetrics) is on
}

// enableMetrics installs a metrics registry (plus any extra sinks) as
// the session's tracer and returns the registry.
func (c *cli) enableMetrics(extra ...trace.Sink) *trace.Metrics {
	c.metrics = trace.NewMetrics()
	sinks := append([]trace.Sink{c.metrics}, extra...)
	if len(sinks) == 1 {
		c.session.Options.Tracer = sinks[0]
	} else {
		c.session.Options.Tracer = trace.Multi(sinks...)
	}
	return c.metrics
}

func newCLI(out io.Writer) *cli {
	return &cli{out: out, session: hercules.NewSession(envUser())}
}

func envUser() string {
	if u := os.Getenv("USER"); u != "" {
		return u
	}
	return "designer"
}

// resolveInst resolves an instance argument: a bootstrap short name, a
// full instance ID, or "last".
func (c *cli) resolveInst(arg string) (history.ID, error) {
	if arg == "last" {
		if c.last == "" {
			return "", fmt.Errorf("nothing run yet")
		}
		return c.last, nil
	}
	if id, ok := c.session.Named[arg]; ok {
		return id, nil
	}
	id := history.ID(arg)
	if c.session.DB.Has(id) {
		return id, nil
	}
	return "", fmt.Errorf("no instance %q (try a bootstrap name, a full ID, or \"last\")", arg)
}

func (c *cli) needFlow() error {
	if c.flow == nil {
		return fmt.Errorf("no current flow; use \"start\"")
	}
	return nil
}

func (c *cli) node(arg string) (flow.NodeID, error) {
	if err := c.needFlow(); err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(arg)
	if err != nil {
		return 0, fmt.Errorf("bad node id %q", arg)
	}
	id := flow.NodeID(n)
	if c.flow.Node(id) == nil {
		return 0, fmt.Errorf("no node %d in the current flow", n)
	}
	return id, nil
}

func (c *cli) exec(line string) error {
	if i := strings.Index(line, "#"); i >= 0 {
		line = line[:i]
	}
	args := strings.Fields(line)
	if len(args) == 0 {
		return nil
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "help":
		return c.cmdHelp()
	case "schema":
		fmt.Fprint(c.out, schema.FormatString(c.session.Schema))
		return nil
	case "catalog":
		return c.cmdCatalog(args)
	case "start":
		return c.cmdStart(args)
	case "show":
		if err := c.needFlow(); err != nil {
			return err
		}
		c.printFlow()
		return nil
	case "lisp":
		if err := c.needFlow(); err != nil {
			return err
		}
		fmt.Fprintln(c.out, c.flow.LispForm())
		return nil
	case "bipartite":
		if err := c.needFlow(); err != nil {
			return err
		}
		acts, err := c.flow.Bipartite()
		if err != nil {
			return err
		}
		for _, a := range acts {
			fmt.Fprintf(c.out, "  %s\n", a)
		}
		return nil
	case "expand":
		if len(args) < 1 {
			return fmt.Errorf("expand <node> [optional]")
		}
		id, err := c.node(args[0])
		if err != nil {
			return err
		}
		withOpt := len(args) > 1 && args[1] == "optional"
		if err := c.flow.ExpandDown(id, withOpt); err != nil {
			return err
		}
		c.printFlow()
		return nil
	case "expandopt":
		if len(args) != 2 {
			return fmt.Errorf("expandopt <node> <depkey>")
		}
		id, err := c.node(args[0])
		if err != nil {
			return err
		}
		if err := c.flow.ExpandOptional(id, args[1]); err != nil {
			return err
		}
		c.printFlow()
		return nil
	case "expandup":
		if len(args) != 3 {
			return fmt.Errorf("expandup <node> <consumer> <depkey>")
		}
		id, err := c.node(args[0])
		if err != nil {
			return err
		}
		pid, err := c.flow.ExpandUp(id, args[1], args[2])
		if err != nil {
			return err
		}
		fmt.Fprintf(c.out, "added node %d (%s)\n", pid, args[1])
		c.printFlow()
		return nil
	case "specialize":
		if len(args) != 2 {
			return fmt.Errorf("specialize <node> <subtype>")
		}
		id, err := c.node(args[0])
		if err != nil {
			return err
		}
		return c.flow.Specialize(id, args[1])
	case "connect":
		if len(args) != 3 {
			return fmt.Errorf("connect <parent> <depkey> <child>")
		}
		p, err := c.node(args[0])
		if err != nil {
			return err
		}
		ch, err := c.node(args[2])
		if err != nil {
			return err
		}
		return c.flow.Connect(p, args[1], ch)
	case "unexpand":
		if len(args) != 1 {
			return fmt.Errorf("unexpand <node>")
		}
		id, err := c.node(args[0])
		if err != nil {
			return err
		}
		if err := c.flow.Unexpand(id); err != nil {
			return err
		}
		c.printFlow()
		return nil
	case "bind":
		if len(args) < 2 {
			return fmt.Errorf("bind <node> <instance...>")
		}
		id, err := c.node(args[0])
		if err != nil {
			return err
		}
		var insts []history.ID
		for _, a := range args[1:] {
			inst, err := c.resolveInst(a)
			if err != nil {
				return err
			}
			insts = append(insts, inst)
		}
		return c.flow.Bind(id, insts...)
	case "choices":
		if len(args) != 1 {
			return fmt.Errorf("choices <node>")
		}
		return c.cmdChoices(args[0])
	case "run":
		return c.cmdRun(args)
	case "browse":
		return c.cmdBrowse(args)
	case "history":
		return c.oneInstCmd(args, "history", func(id history.ID) (string, error) {
			return c.session.History(id)
		})
	case "uses":
		return c.oneInstCmd(args, "uses", func(id history.ID) (string, error) {
			deps, err := c.session.UseDependencies(id)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, d := range deps {
				fmt.Fprintf(&b, "  %s\n", c.session.DB.Get(d))
			}
			return b.String(), nil
		})
	case "versions":
		return c.oneInstCmd(args, "versions", c.session.VersionTree)
	case "trace":
		return c.oneInstCmd(args, "trace", c.session.FlowTrace)
	case "cat":
		return c.oneInstCmd(args, "cat", c.session.ArtifactText)
	case "stale":
		return c.oneInstCmd(args, "stale", func(id history.ID) (string, error) {
			ood, err := c.session.OutOfDate(id)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s out of date: %v\n", id, ood), nil
		})
	case "retrace":
		return c.oneInstCmd(args, "retrace", func(id history.ID) (string, error) {
			rr, err := c.session.Retrace(id)
			if err != nil {
				return "", err
			}
			out := rr.Plan.String() + "\n"
			if !rr.Fresh {
				out += fmt.Sprintf("new target: %s\n", rr.NewTarget(id))
			}
			return out, nil
		})
	case "metrics":
		if c.metrics == nil {
			return fmt.Errorf("metrics are not enabled (start with -metrics)")
		}
		fmt.Fprint(c.out, c.metrics.Expose())
		return nil
	case "annotate":
		if len(args) < 2 {
			return fmt.Errorf("annotate <inst> <name...>")
		}
		id, err := c.resolveInst(args[0])
		if err != nil {
			return err
		}
		return c.session.Annotate(id, strings.Join(args[1:], " "), "")
	default:
		return fmt.Errorf("unknown command %q (try \"help\")", cmd)
	}
}

func (c *cli) oneInstCmd(args []string, name string, f func(history.ID) (string, error)) error {
	if len(args) != 1 {
		return fmt.Errorf("%s <instance>", name)
	}
	id, err := c.resolveInst(args[0])
	if err != nil {
		return err
	}
	out, err := f(id)
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, out)
	return nil
}

func (c *cli) cmdHelp() error {
	fmt.Fprint(c.out, `commands:
  schema                            print the task schema
  catalog entities|tools|flows|data the four catalogs (Fig. 9)
  start goal <type>                 goal-based approach
  start tool <inst>                 tool-based approach
  start data <inst>                 data-based approach
  start plan <name>                 plan-based approach
  show | lisp | bipartite           render the current flow
  expand <n> [optional]             expand a node downward
  expandopt <n> <depkey>            add one optional dependency
  expandup <n> <consumer> <depkey>  expand upward
  specialize <n> <subtype>          select a concrete subtype
  connect <parent> <depkey> <child> reuse an entity (Fig. 5)
  unexpand <n>                      remove an expansion
  bind <n> <inst...>                select instances (browser)
  choices <n>                       specialization and up choices
  run [node]                        execute the flow or a sub-flow
  browse [type=X] [user=U] [kw=K]   instance browser
  history|uses|versions|trace <i>   history queries (Figs. 10, 11)
  cat <i>                           show an instance's artifact
  stale <i> | retrace <i>           consistency maintenance
  annotate <i> <name...>            annotate an instance
  metrics                           print the metrics dump (-metrics)
  quit
instances: bootstrap names (e.g. sim, netEd.fulladder), full IDs, "last".
`)
	return nil
}

func (c *cli) cmdCatalog(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("catalog entities|tools|flows|data")
	}
	switch args[0] {
	case "entities":
		for _, e := range c.session.Catalogs.Entities() {
			marks := ""
			if e.Abstract {
				marks += " (abstract)"
			}
			if e.Composite {
				marks += " (composite)"
			}
			fmt.Fprintf(c.out, "  %-22s %-5s %3d instance(s)%s\n", e.Name, e.Kind, e.Instances, marks)
		}
	case "tools":
		for _, te := range c.session.Catalogs.Tools() {
			fmt.Fprintf(c.out, "  %s\n", te.Type)
			for _, in := range te.Instances {
				fmt.Fprintf(c.out, "    %s\n", in)
			}
		}
	case "flows":
		for _, n := range c.session.Catalogs.FlowNames() {
			fmt.Fprintf(c.out, "  %s\n", n)
		}
	case "data":
		for _, in := range c.session.Catalogs.Data(history.Filter{}) {
			fmt.Fprintf(c.out, "  %s\n", in)
		}
	default:
		return fmt.Errorf("catalog entities|tools|flows|data")
	}
	return nil
}

func (c *cli) cmdStart(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("start goal|tool|data|plan <arg>")
	}
	switch args[0] {
	case "goal":
		f, id, err := c.session.Catalogs.StartFromGoal(args[1])
		if err != nil {
			return err
		}
		c.flow = f
		fmt.Fprintf(c.out, "started from goal; node %d (%s)\n", id, args[1])
	case "tool":
		inst, err := c.resolveInst(args[1])
		if err != nil {
			return err
		}
		f, id, err := c.session.Catalogs.StartFromTool(inst)
		if err != nil {
			return err
		}
		c.flow = f
		fmt.Fprintf(c.out, "started from tool; node %d bound to %s\n", id, inst)
	case "data":
		inst, err := c.resolveInst(args[1])
		if err != nil {
			return err
		}
		f, id, err := c.session.Catalogs.StartFromData(inst)
		if err != nil {
			return err
		}
		c.flow = f
		fmt.Fprintf(c.out, "started from data; node %d bound to %s\n", id, inst)
	case "plan":
		f, err := c.session.Catalogs.StartFromPlan(args[1])
		if err != nil {
			return err
		}
		c.flow = f
		fmt.Fprintf(c.out, "checked out plan %q\n", args[1])
	default:
		return fmt.Errorf("start goal|tool|data|plan <arg>")
	}
	return nil
}

func (c *cli) cmdChoices(arg string) error {
	id, err := c.node(arg)
	if err != nil {
		return err
	}
	subs, err := c.flow.SpecializationChoices(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "specializations: %s\n", strings.Join(subs, ", "))
	ups, err := c.flow.UpChoices(id)
	if err != nil {
		return err
	}
	for _, u := range ups {
		fmt.Fprintf(c.out, "  used by %s via %s\n", u.Consumer, u.DepKey)
	}
	return nil
}

func (c *cli) cmdRun(args []string) error {
	if err := c.needFlow(); err != nil {
		return err
	}
	var (
		res     *exec.Result
		err     error
		targets []flow.NodeID
	)
	if len(args) == 1 {
		id, nerr := c.node(args[0])
		if nerr != nil {
			return nerr
		}
		targets = []flow.NodeID{id}
		res, err = c.session.RunNode(c.flow, id)
	} else {
		targets = c.flow.Roots()
		res, err = c.session.Run(c.flow)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "executed %d task(s) in %v\n", res.TasksRun, res.Elapsed.Round(time.Millisecond))
	// Report per-node results in node order.
	var nodes []flow.NodeID
	for id := range res.Created {
		nodes = append(nodes, id)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, id := range nodes {
		fmt.Fprintf(c.out, "  node %d -> %v\n", id, res.Created[id])
	}
	// "last" tracks the executed targets' results, not incidental tool
	// bindings.
	for _, id := range targets {
		if insts := res.Created[id]; len(insts) > 0 {
			c.last = insts[len(insts)-1]
		}
	}
	return nil
}

func (c *cli) cmdBrowse(args []string) error {
	var f history.Filter
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok {
			return fmt.Errorf("browse filters look like type=X user=U kw=K")
		}
		switch k {
		case "type":
			f.Type = v
		case "user":
			f.User = v
		case "kw":
			f.Keyword = v
		default:
			return fmt.Errorf("unknown filter %q", k)
		}
	}
	for _, in := range c.session.Browse(f) {
		fmt.Fprintf(c.out, "  %-28s %s %s\n", in.ID, in.Created.Format("Jan 2 15:04"), in.Name)
	}
	return nil
}

func (c *cli) printFlow() {
	fmt.Fprint(c.out, c.renderWithIDs())
}

// renderWithIDs renders the flow like flow.Render but prefixing node IDs
// so commands can address nodes.
func (c *cli) renderWithIDs() string {
	var b strings.Builder
	seen := make(map[flow.NodeID]bool)
	var walk func(id flow.NodeID, key string, depth int)
	walk = func(id flow.NodeID, key string, depth int) {
		n := c.flow.Node(id)
		indent := strings.Repeat("  ", depth)
		label := n.Type
		if key != "" {
			label = key + ": " + n.Type
		}
		if bound := n.Bound(); len(bound) > 0 {
			parts := make([]string, len(bound))
			for i, x := range bound {
				parts[i] = string(x)
			}
			label += " = {" + strings.Join(parts, ", ") + "}"
		}
		if seen[id] {
			fmt.Fprintf(&b, "%s[%d] %s (shared)\n", indent, id, label)
			return
		}
		seen[id] = true
		fmt.Fprintf(&b, "%s[%d] %s\n", indent, id, label)
		for _, k := range n.DepKeys() {
			child, _ := n.Dep(k)
			walk(child, k, depth+1)
		}
	}
	for _, r := range c.flow.Roots() {
		walk(r, "", 0)
	}
	return b.String()
}
