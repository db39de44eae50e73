// Package journalcodec enforces the store's record-encoding seam: the
// journal's on-disk encoding is owned by internal/store/codec, and the
// only legal way to render or parse a journal record (codec.Record) or
// snapshot envelope (codec.Snapshot) is through that package's
// AppendRecord, Reader and snapshot functions. A direct json.Marshal of
// a Record elsewhere silently re-creates the retired v1 wire format — it
// still replays, but it bypasses the CRC framing and the batch encoder,
// and diverges the moment the codec evolves.
package journalcodec

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
)

var Analyzer = &framework.Analyzer{
	Name: "journalcodec",
	Doc: "journal record types (codec.Record, codec.Snapshot) must be " +
		"encoded and decoded through internal/store/codec; direct " +
		"encoding/json calls elsewhere fork the wire format",
	Run: run,
}

func run(pass *framework.Pass) error {
	if framework.PathHasSuffix(pass.Path, "internal/store/codec") {
		return nil // the codec package is the encoding's one legal home
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue // tests may hand-craft journal bytes to corrupt them
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, arg := jsonCall(pass, call)
			if arg == nil {
				return true
			}
			if name := codecTypeName(pass.TypesInfo.Types[arg].Type); name != "" {
				pass.Reportf(call.Pos(), "%s of codec.%s outside internal/store/codec: journal encoding goes through the codec layer (codec.AppendRecord / codec.Reader)", fn, name)
			}
			return true
		})
	}
	return nil
}

// jsonCall matches the encoding/json entry points and returns the
// display name and the argument that carries the encoded value:
// json.Marshal(v), json.MarshalIndent(v, ...), json.Unmarshal(b, v),
// (*json.Decoder).Decode(v), (*json.Encoder).Encode(v).
func jsonCall(pass *framework.Pass, call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			if pn.Imported().Path() != "encoding/json" {
				return "", nil
			}
			switch sel.Sel.Name {
			case "Marshal", "MarshalIndent":
				if len(call.Args) >= 1 {
					return "json." + sel.Sel.Name, call.Args[0]
				}
			case "Unmarshal":
				if len(call.Args) >= 2 {
					return "json.Unmarshal", call.Args[1]
				}
			}
			return "", nil
		}
	}
	// Method form: Decode on json.Decoder, Encode on json.Encoder.
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal || len(call.Args) < 1 {
		return "", nil
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "encoding/json" {
		return "", nil
	}
	if (obj.Name() == "Decoder" && sel.Sel.Name == "Decode") ||
		(obj.Name() == "Encoder" && sel.Sel.Name == "Encode") {
		return "json." + obj.Name() + "." + sel.Sel.Name, call.Args[0]
	}
	return "", nil
}

// codecTypeName unwraps pointers and slices and reports whether the
// element is the codec package's Record or Snapshot type (aliases like
// the store's `type record = codec.Record` resolve to the same named
// type). The package is matched by path suffix so analysistest
// fixtures can declare their own internal/store/codec.
func codecTypeName(t types.Type) string {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		default:
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			obj := named.Obj()
			if obj.Pkg() == nil || !framework.PathHasSuffix(obj.Pkg().Path(), "internal/store/codec") {
				return ""
			}
			if obj.Name() == "Record" || obj.Name() == "Snapshot" {
				return obj.Name()
			}
			return ""
		}
	}
}
