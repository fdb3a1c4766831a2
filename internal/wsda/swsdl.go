package wsda

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"wsda/internal/xmldoc"
)

// Binding attaches an operation to a network protocol and endpoint, e.g.
// {"http", "http://cms.cern.ch/rc/xquery"}.
type Binding struct {
	Protocol string // wire protocol name, e.g. "http"
	Endpoint string // invocation address for that protocol
}

// Operation is a named operation of a service interface, invokable over one
// or more protocol bindings.
type Operation struct {
	Name     string    // operation name within the interface
	Bindings []Binding // ways to invoke it, in preference order
}

// Interface is a set of operations under a well-known interface type.
type Interface struct {
	Type       string      // e.g. "Presenter", "Consumer", "MinQuery", "XQuery"
	Operations []Operation // the operations this interface offers
}

// Service is an SWSDL service description (thesis Ch. 2.2): a network
// service is a collection of interfaces capable of executing operations
// over network protocols to endpoints.
type Service struct {
	Name       string            // human-readable service name
	Owner      string            // owning principal or organization
	Domain     string            // administrative domain, e.g. "cern.ch"
	Link       string            // the service link: HTTP URL retrieving this description
	Interfaces []Interface       // the interfaces the service implements
	Attributes map[string]string // free-form service properties (load, ...)
}

// Well-known WSDA interface types.
const (
	IfacePresenter = "Presenter"
	IfaceConsumer  = "Consumer"
	IfaceMinQuery  = "MinQuery"
	IfaceXQuery    = "XQuery"
)

// Interface returns the interface of the given type, or nil.
func (s *Service) Interface(typ string) *Interface {
	for i := range s.Interfaces {
		if s.Interfaces[i].Type == typ {
			return &s.Interfaces[i]
		}
	}
	return nil
}

// Implements reports whether the service offers all the given interface
// types — the dynamic plug-ability test of thesis Ch. 1.2.
func (s *Service) Implements(types ...string) bool {
	for _, t := range types {
		if s.Interface(t) == nil {
			return false
		}
	}
	return true
}

// Endpoint returns the first endpoint bound to (ifaceType, opName, proto),
// or "".
func (s *Service) Endpoint(ifaceType, opName, proto string) string {
	iface := s.Interface(ifaceType)
	if iface == nil {
		return ""
	}
	for _, op := range iface.Operations {
		if op.Name != opName {
			continue
		}
		for _, b := range op.Bindings {
			if b.Protocol == proto {
				return b.Endpoint
			}
		}
	}
	return ""
}

// ToXML renders the description in SWSDL form:
//
//	<service name="..." owner="..." domain="..." link="...">
//	  <attr name="load" value="0.35"/>
//	  <interface type="XQuery">
//	    <operation name="query">
//	      <bind protocol="http" endpoint="http://..."/>
//	    </operation>
//	  </interface>
//	</service>
func (s *Service) ToXML() *xmldoc.Node {
	el := xmldoc.NewElement("service")
	if s.Name != "" {
		el.SetAttr("name", s.Name)
	}
	if s.Owner != "" {
		el.SetAttr("owner", s.Owner)
	}
	if s.Domain != "" {
		el.SetAttr("domain", s.Domain)
	}
	if s.Link != "" {
		el.SetAttr("link", s.Link)
	}
	keys := make([]string, 0, len(s.Attributes))
	for k := range s.Attributes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a := xmldoc.NewElement("attr")
		a.SetAttr("name", k)
		a.SetAttr("value", s.Attributes[k])
		el.AppendChild(a)
	}
	for _, iface := range s.Interfaces {
		ie := xmldoc.NewElement("interface")
		ie.SetAttr("type", iface.Type)
		for _, op := range iface.Operations {
			oe := xmldoc.NewElement("operation")
			oe.SetAttr("name", op.Name)
			for _, b := range op.Bindings {
				be := xmldoc.NewElement("bind")
				be.SetAttr("protocol", b.Protocol)
				be.SetAttr("endpoint", b.Endpoint)
				oe.AppendChild(be)
			}
			ie.AppendChild(oe)
		}
		el.AppendChild(ie)
	}
	el.Renumber()
	return el
}

// ServiceFromXML parses an SWSDL <service> element (or a document holding
// one).
func ServiceFromXML(n *xmldoc.Node) (*Service, error) {
	if n.Kind == xmldoc.DocumentNode {
		n = n.DocumentElement()
	}
	if n == nil || n.LocalName() != "service" {
		return nil, fmt.Errorf("wsda: expected <service> element")
	}
	s := &Service{}
	s.Name, _ = n.Attr("name")
	s.Owner, _ = n.Attr("owner")
	s.Domain, _ = n.Attr("domain")
	s.Link, _ = n.Attr("link")
	for _, c := range n.ChildElements() {
		switch c.LocalName() {
		case "attr":
			if s.Attributes == nil {
				s.Attributes = make(map[string]string)
			}
			k, _ := c.Attr("name")
			v, _ := c.Attr("value")
			s.Attributes[k] = v
		case "interface":
			iface := Interface{}
			iface.Type, _ = c.Attr("type")
			if iface.Type == "" {
				return nil, fmt.Errorf("wsda: interface without type in service %q", s.Name)
			}
			for _, oc := range c.ChildElements() {
				if oc.LocalName() != "operation" {
					continue
				}
				op := Operation{}
				op.Name, _ = oc.Attr("name")
				for _, bc := range oc.ChildElements() {
					if bc.LocalName() != "bind" {
						continue
					}
					b := Binding{}
					b.Protocol, _ = bc.Attr("protocol")
					b.Endpoint, _ = bc.Attr("endpoint")
					op.Bindings = append(op.Bindings, b)
				}
				iface.Operations = append(iface.Operations, op)
			}
			s.Interfaces = append(s.Interfaces, iface)
		}
	}
	return s, nil
}

// ParseService parses an SWSDL document from text.
func ParseService(src string) (*Service, error) {
	doc, err := xmldoc.ParseString(src)
	if err != nil {
		return nil, err
	}
	return ServiceFromXML(doc)
}

// String renders the description as compact SWSDL text.
func (s *Service) String() string { return s.ToXML().String() }

// Builder provides fluent construction of service descriptions.
type Builder struct{ s Service }

// NewService starts building a service description.
func NewService(name string) *Builder {
	return &Builder{s: Service{Name: name}}
}

// Owner sets the owning principal.
func (b *Builder) Owner(o string) *Builder { b.s.Owner = o; return b }

// Domain sets the administrative domain.
func (b *Builder) Domain(d string) *Builder { b.s.Domain = d; return b }

// Link sets the service link.
func (b *Builder) Link(l string) *Builder { b.s.Link = l; return b }

// Attr adds a free-form attribute.
func (b *Builder) Attr(k, v string) *Builder {
	if b.s.Attributes == nil {
		b.s.Attributes = make(map[string]string)
	}
	b.s.Attributes[k] = v
	return b
}

// Op adds an operation (creating the interface if absent) with an optional
// HTTP binding endpoint.
func (b *Builder) Op(ifaceType, opName, httpEndpoint string) *Builder {
	iface := b.s.Interface(ifaceType)
	if iface == nil {
		b.s.Interfaces = append(b.s.Interfaces, Interface{Type: ifaceType})
		iface = &b.s.Interfaces[len(b.s.Interfaces)-1]
	}
	op := Operation{Name: opName}
	if httpEndpoint != "" {
		op.Bindings = append(op.Bindings, Binding{Protocol: "http", Endpoint: httpEndpoint})
	}
	iface.Operations = append(iface.Operations, op)
	return b
}

// Build returns the completed description.
func (b *Builder) Build() *Service { s := b.s; return &s }

// MatchSpec is an interface/operation requirement used to match services
// against a specification (thesis Ch. 1.2: "match services against an
// interface and network protocol specification").
type MatchSpec struct {
	Interface string // required interface type
	Operation string // optional: required operation name
	Protocol  string // optional: required protocol
}

// Matches reports whether the service satisfies every requirement.
func (s *Service) Matches(specs ...MatchSpec) bool {
	for _, spec := range specs {
		iface := s.Interface(spec.Interface)
		if iface == nil {
			return false
		}
		bound := func(b Binding) bool { return strings.EqualFold(b.Protocol, spec.Protocol) }
		offers := func(op Operation) bool {
			return op.Name == spec.Operation && (spec.Protocol == "" || slices.ContainsFunc(op.Bindings, bound))
		}
		if spec.Operation != "" && !slices.ContainsFunc(iface.Operations, offers) {
			return false
		}
	}
	return true
}
