use std::collections::HashMap;
use std::sync::Arc;

use netart_govern::MemBudget;

use crate::{
    BuildError, Library, ModuleId, NetId, SystemTermId, Template, TemplateId, TermIdx, TermType,
};

/// Estimated bookkeeping bytes per hash-map entry, on top of the
/// key/value payload (bucket slot, hash, growth slack).
const MAP_ENTRY_OVERHEAD: u64 = 48;

/// A module instance: a named occurrence of a library template (the
/// *call-file* records of Appendix A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    name: String,
    template: TemplateId,
}

impl Instance {
    /// Instance name, unique within the network.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The library template this instance refers to.
    pub fn template(&self) -> TemplateId {
        self.template
    }
}

/// A system terminal: a connection point of the whole diagram to the
/// outside world (the *io-file* records of Appendix A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemTerminal {
    name: String,
    ty: TermType,
}

impl SystemTerminal {
    /// Terminal name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Electrical direction, from the outside's point of view.
    pub fn ty(&self) -> TermType {
        self.ty
    }
}

/// One connection point of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pin {
    /// A subsystem terminal: terminal `term` of module `module`.
    Sub {
        /// The module carrying the terminal.
        module: ModuleId,
        /// Index of the terminal within the module's template.
        term: TermIdx,
    },
    /// A system terminal of the diagram.
    System(SystemTermId),
}

/// A net: a named set of pins that must be electrically connected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    name: String,
    pins: Vec<Pin>,
}

impl Net {
    /// Net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pins this net connects, in connection order.
    pub fn pins(&self) -> &[Pin] {
        &self.pins
    }
}

/// Name → id lookups for module instances, nets and system terminals.
/// [`NetworkBuilder`] fills them as records arrive and the finished
/// [`Network`] keeps them, shared between clones, so by-name lookups
/// stay O(1).
#[derive(Debug, Clone, Default)]
struct Names {
    modules: HashMap<String, ModuleId>,
    nets: HashMap<String, NetId>,
    system_terms: HashMap<String, SystemTermId>,
}

/// An immutable, validated network: the nine-tuple representation of
/// §4.6.2 (modules `M`, nets `N`, system terminals `ST`, subsystem
/// terminals `T`, and the `terms`/`type`/`position-terminal`/`net`/`size`
/// functions) together with its module [`Library`].
///
/// Build one with [`NetworkBuilder`] or parse the Appendix A files via
/// [`crate::format`].
#[derive(Debug, Clone)]
pub struct Network {
    library: Library,
    instances: Vec<Instance>,
    nets: Vec<Net>,
    system_terms: Vec<SystemTerminal>,
    /// For each module, the nets it touches (each net listed once),
    /// sorted.
    module_nets: Vec<Vec<NetId>>,
    /// For each net, the modules it touches (each module once), sorted.
    net_modules: Vec<Vec<ModuleId>>,
    /// net of each system terminal, if connected.
    system_term_net: Vec<Option<NetId>>,
    names: Arc<Names>,
}

impl Network {
    /// The module library backing this network.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Number of module instances.
    pub fn module_count(&self) -> usize {
        self.instances.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of system terminals.
    pub fn system_term_count(&self) -> usize {
        self.system_terms.len()
    }

    /// Iterates over all module ids.
    pub fn modules(&self) -> impl Iterator<Item = ModuleId> + '_ {
        (0..self.instances.len()).map(ModuleId::from_index)
    }

    /// Iterates over all net ids.
    pub fn nets(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len()).map(NetId::from_index)
    }

    /// Iterates over all system terminal ids.
    pub fn system_terms(&self) -> impl Iterator<Item = SystemTermId> + '_ {
        (0..self.system_terms.len()).map(SystemTermId::from_index)
    }

    /// The instance record of a module.
    ///
    /// # Panics
    ///
    /// Panics when the id does not come from this network. The same
    /// applies to all id-taking accessors below.
    pub fn instance(&self, m: ModuleId) -> &Instance {
        &self.instances[m.index()]
    }

    /// Shortcut: the template of a module instance.
    pub fn template_of(&self, m: ModuleId) -> &Template {
        self.library.template(self.instances[m.index()].template)
    }

    /// The net record.
    pub fn net(&self, n: NetId) -> &Net {
        &self.nets[n.index()]
    }

    /// The system terminal record.
    pub fn system_term(&self, st: SystemTermId) -> &SystemTerminal {
        &self.system_terms[st.index()]
    }

    /// The net a system terminal is connected to, if any.
    pub fn system_term_net(&self, st: SystemTermId) -> Option<NetId> {
        self.system_term_net[st.index()]
    }

    /// Looks up a module by instance name.
    pub fn module_by_name(&self, name: &str) -> Option<ModuleId> {
        self.names.modules.get(name).copied()
    }

    /// Looks up a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.names.nets.get(name).copied()
    }

    /// Looks up a system terminal by name.
    pub fn system_term_by_name(&self, name: &str) -> Option<SystemTermId> {
        self.names.system_terms.get(name).copied()
    }

    /// The nets touching a module, each listed once, in id order.
    pub fn module_nets(&self, m: ModuleId) -> &[NetId] {
        &self.module_nets[m.index()]
    }

    /// The modules touched by a net, each listed once, in id order.
    pub fn net_modules(&self, n: NetId) -> &[ModuleId] {
        &self.net_modules[n.index()]
    }

    /// The paper's `connected` relation: `true` when net `n` has a
    /// terminal on both `a` and `b`.
    pub fn connected(&self, a: ModuleId, b: ModuleId, n: NetId) -> bool {
        let ms = &self.net_modules[n.index()];
        ms.binary_search(&a).is_ok() && ms.binary_search(&b).is_ok()
    }

    /// Number of nets connecting `a` and `b` (`a != b`): the counting
    /// quantifier `(N n : ... : (a,b) connected(n))` used throughout the
    /// placement heuristics.
    pub fn connection_count(&self, a: ModuleId, b: ModuleId) -> usize {
        let (na, nb) = (&self.module_nets[a.index()], &self.module_nets[b.index()]);
        let (small, large) = if na.len() <= nb.len() { (na, nb) } else { (nb, na) };
        small
            .iter()
            .filter(|n| large.binary_search(n).is_ok())
            .count()
    }

    /// Number of nets connecting module `m` to any module in `others`
    /// (each net counted once).
    pub fn connection_count_to_set(
        &self,
        m: ModuleId,
        others: impl Fn(ModuleId) -> bool,
    ) -> usize {
        self.module_nets[m.index()]
            .iter()
            .filter(|&&n| {
                self.net_modules[n.index()]
                    .iter()
                    .any(|&o| o != m && others(o))
            })
            .count()
    }

    /// `true` when there is a net driving from an out/inout terminal of
    /// `from` into an in/inout terminal of `to`.
    ///
    /// This is the successor relation of the longest-path search in box
    /// formation (§4.6.3), and returns the connecting net and terminal
    /// indices when it holds.
    pub fn drives(&self, from: ModuleId, to: ModuleId) -> Option<(NetId, TermIdx, TermIdx)> {
        if from == to {
            return None;
        }
        for &n in &self.module_nets[from.index()] {
            if !self.connected(from, to, n) {
                continue;
            }
            let mut out_term = None;
            let mut in_term = None;
            for pin in self.nets[n.index()].pins() {
                if let Pin::Sub { module, term } = *pin {
                    let ty = self.template_of(module).terminals()[term].ty();
                    if module == from && ty.drives_output() && out_term.is_none() {
                        out_term = Some(term);
                    }
                    if module == to && ty.accepts_input() && in_term.is_none() {
                        in_term = Some(term);
                    }
                }
            }
            if let (Some(o), Some(i)) = (out_term, in_term) {
                return Some((n, o, i));
            }
        }
        None
    }

    /// The net a pin is connected to, if any (the paper's `net`
    /// relation).
    pub fn pin_net(&self, pin: Pin) -> Option<NetId> {
        match pin {
            Pin::Sub { module, .. } => self.module_nets[module.index()]
                .iter()
                .copied()
                .find(|&n| self.nets[n.index()].pins.contains(&pin)),
            Pin::System(st) => self.system_term_net[st.index()],
        }
    }

    /// The type of a pin's terminal.
    pub fn pin_type(&self, pin: Pin) -> TermType {
        match pin {
            Pin::Sub { module, term } => self.template_of(module).terminals()[term].ty(),
            Pin::System(st) => self.system_terms[st.index()].ty,
        }
    }

    /// Human-readable pin description for diagnostics.
    pub fn pin_name(&self, pin: Pin) -> String {
        match pin {
            Pin::Sub { module, term } => format!(
                "{}.{}",
                self.instances[module.index()].name,
                self.template_of(module).terminals()[term].name()
            ),
            Pin::System(st) => self.system_terms[st.index()].name.clone(),
        }
    }
}

/// Incremental construction of a [`Network`].
///
/// See the crate-level example. All `connect*` calls are keyed by net
/// *name*; nets come into existence on first mention, mirroring the
/// net-list file of Appendix A where a net is just a name shared between
/// records.
///
/// Growth is allocation-checked: attach a [`MemBudget`] with
/// [`NetworkBuilder::with_budget`] and every instance, terminal, net
/// and pin charges its bytes before being stored. A refused charge
/// surfaces as [`BuildError::ResourceExhausted`] with exact byte
/// counts; without a budget the builder never refuses.
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    library: Library,
    budget: Arc<MemBudget>,
    instances: Vec<Instance>,
    system_terms: Vec<SystemTerminal>,
    nets: Vec<Net>,
    names: Names,
    pin_net: HashMap<Pin, NetId>,
}

impl NetworkBuilder {
    /// Starts building a network over the given module library.
    pub fn new(library: Library) -> Self {
        NetworkBuilder {
            library,
            budget: Arc::new(MemBudget::unlimited()),
            instances: Vec::new(),
            system_terms: Vec::new(),
            nets: Vec::new(),
            names: Names::default(),
            pin_net: HashMap::new(),
        }
    }

    /// Governs all further growth by `budget`.
    pub fn with_budget(mut self, budget: Arc<MemBudget>) -> Self {
        self.budget = budget;
        self
    }

    /// Charges `bytes` for `stage`, converting a refusal into the
    /// builder's error type.
    fn charge(&self, stage: &'static str, bytes: u64) -> Result<(), BuildError> {
        crate::ingest::charge(&self.budget, stage, bytes).map_err(BuildError::from)
    }

    /// The library this builder instantiates from.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Adds a module instance of a template.
    ///
    /// # Errors
    ///
    /// Fails on duplicate instance names or unknown template ids.
    pub fn add_instance(
        &mut self,
        name: impl Into<String>,
        template: TemplateId,
    ) -> Result<ModuleId, BuildError> {
        let name = name.into();
        if self.names.modules.contains_key(&name) {
            return Err(BuildError::DuplicateInstance { name });
        }
        if template.index() >= self.library.len() {
            return Err(BuildError::UnknownTemplate {
                id: template.to_string(),
            });
        }
        // The name is stored twice (instance record + lookup key).
        self.charge(
            "network instances",
            2 * name.len() as u64
                + (std::mem::size_of::<Instance>() + std::mem::size_of::<(String, ModuleId)>())
                    as u64
                + MAP_ENTRY_OVERHEAD,
        )?;
        let id = ModuleId::from_index(self.instances.len());
        self.names.modules.insert(name.clone(), id);
        self.instances.push(Instance { name, template });
        Ok(id)
    }

    /// Adds a system terminal of the diagram.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names.
    pub fn add_system_terminal(
        &mut self,
        name: impl Into<String>,
        ty: TermType,
    ) -> Result<SystemTermId, BuildError> {
        let name = name.into();
        if self.names.system_terms.contains_key(&name) {
            return Err(BuildError::DuplicateSystemTerminal { name });
        }
        self.charge(
            "network system terminals",
            2 * name.len() as u64
                + (std::mem::size_of::<SystemTerminal>()
                    + std::mem::size_of::<(String, SystemTermId)>()) as u64
                + MAP_ENTRY_OVERHEAD,
        )?;
        let id = SystemTermId::from_index(self.system_terms.len());
        self.names.system_terms.insert(name.clone(), id);
        self.system_terms.push(SystemTerminal { name, ty });
        Ok(id)
    }

    fn net_id(&mut self, net: &str) -> Result<NetId, BuildError> {
        if let Some(&id) = self.names.nets.get(net) {
            return Ok(id);
        }
        self.charge(
            "network nets",
            2 * net.len() as u64
                + (std::mem::size_of::<Net>() + std::mem::size_of::<(String, NetId)>()) as u64
                + MAP_ENTRY_OVERHEAD,
        )?;
        let id = NetId::from_index(self.nets.len());
        self.names.nets.insert(net.to_owned(), id);
        self.nets.push(Net {
            name: net.to_owned(),
            pins: Vec::new(),
        });
        Ok(id)
    }

    fn attach(&mut self, net: &str, pin: Pin) -> Result<(), BuildError> {
        // Validate the pin before materialising the net, so a rejected
        // connection never leaves an empty ghost net behind.
        if let Some(&old) = self.pin_net.get(&pin) {
            if self.names.nets.get(net) == Some(&old) {
                return Ok(()); // idempotent re-connection
            }
            return Err(BuildError::PinReconnected {
                pin: self.describe(pin),
                old_net: self.nets[old.index()].name.clone(),
                new_net: net.to_owned(),
            });
        }
        self.charge(
            "network pins",
            (std::mem::size_of::<Pin>() + std::mem::size_of::<(Pin, NetId)>()) as u64
                + MAP_ENTRY_OVERHEAD,
        )?;
        let id = self.net_id(net)?;
        self.pin_net.insert(pin, id);
        self.nets[id.index()].pins.push(pin);
        Ok(())
    }

    fn describe(&self, pin: Pin) -> String {
        match pin {
            Pin::Sub { module, term } => {
                let inst = &self.instances[module.index()];
                let tpl = self.library.template(inst.template);
                format!("{}.{}", inst.name, tpl.terminals()[term].name())
            }
            Pin::System(st) => self.system_terms[st.index()].name.clone(),
        }
    }

    /// Connects a system terminal to the named net.
    ///
    /// # Errors
    ///
    /// Fails when the terminal is already on a different net.
    pub fn connect(&mut self, net: &str, st: SystemTermId) -> Result<(), BuildError> {
        self.attach(net, Pin::System(st))
    }

    /// Connects a module terminal (by name) to the named net: one
    /// net-list-file record of Appendix A.
    ///
    /// # Errors
    ///
    /// Fails on unknown terminal names or when the pin is already on a
    /// different net.
    pub fn connect_pin(
        &mut self,
        net: &str,
        module: ModuleId,
        terminal: &str,
    ) -> Result<(), BuildError> {
        let inst = &self.instances[module.index()];
        let tpl = self.library.template(inst.template);
        let term = tpl
            .terminal_index(terminal)
            .ok_or_else(|| BuildError::UnknownTerminal {
                instance: inst.name.clone(),
                terminal: terminal.to_owned(),
            })?;
        self.attach(net, Pin::Sub { module, term })
    }

    /// Connects a module terminal by index.
    ///
    /// # Errors
    ///
    /// Fails when the index is out of range for the module's template,
    /// or when the pin is already on a different net.
    pub fn connect_pin_idx(
        &mut self,
        net: &str,
        module: ModuleId,
        term: TermIdx,
    ) -> Result<(), BuildError> {
        let inst = &self.instances[module.index()];
        let tpl = self.library.template(inst.template);
        if term >= tpl.terminal_count() {
            return Err(BuildError::UnknownTerminal {
                instance: inst.name.clone(),
                terminal: format!("#{term}"),
            });
        }
        self.attach(net, Pin::Sub { module, term })
    }

    /// Looks up an already-added instance by name.
    pub fn instance_by_name(&self, name: &str) -> Option<ModuleId> {
        self.names.modules.get(name).copied()
    }

    /// Looks up an already-added system terminal by name.
    pub fn system_term_by_name(&self, name: &str) -> Option<SystemTermId> {
        self.names.system_terms.get(name).copied()
    }

    /// Validates and freezes the network.
    ///
    /// # Errors
    ///
    /// Fails when any net connects fewer than two pins (§5.3: "a net
    /// should be allowed to connect several points, but at least two").
    pub fn finish(self) -> Result<Network, BuildError> {
        for net in &self.nets {
            if net.pins.len() < 2 {
                return Err(BuildError::UnderfilledNet {
                    net: net.name.clone(),
                    pins: net.pins.len(),
                });
            }
        }
        // The connectivity indexes hold at most one NetId per pin on
        // the module side and one ModuleId per pin on the net side,
        // plus the per-module/net/terminal vector headers.
        let total_pins: u64 = self.nets.iter().map(|n| n.pins.len() as u64).sum();
        self.charge(
            "network indexes",
            total_pins
                * (std::mem::size_of::<NetId>() + std::mem::size_of::<ModuleId>()) as u64
                + (self.instances.len() + self.nets.len()) as u64
                    * std::mem::size_of::<Vec<NetId>>() as u64
                + self.system_terms.len() as u64 * std::mem::size_of::<Option<NetId>>() as u64,
        )?;
        let mut module_nets: Vec<Vec<NetId>> = vec![Vec::new(); self.instances.len()];
        let mut net_modules: Vec<Vec<ModuleId>> = vec![Vec::new(); self.nets.len()];
        let mut system_term_net = vec![None; self.system_terms.len()];
        for (i, net) in self.nets.iter().enumerate() {
            let n = NetId::from_index(i);
            for pin in &net.pins {
                match *pin {
                    Pin::Sub { module, .. } => {
                        module_nets[module.index()].push(n);
                        net_modules[i].push(module);
                    }
                    Pin::System(st) => system_term_net[st.index()] = Some(n),
                }
            }
        }
        for v in &mut module_nets {
            v.sort_unstable();
            v.dedup();
        }
        for v in &mut net_modules {
            v.sort_unstable();
            v.dedup();
        }
        Ok(Network {
            library: self.library,
            instances: self.instances,
            nets: self.nets,
            system_terms: self.system_terms,
            module_nets,
            net_modules,
            system_term_net,
            names: Arc::new(self.names),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Template;

    fn lib() -> (Library, TemplateId) {
        let mut lib = Library::new();
        let id = lib
            .add_template(
                Template::new("gate", (4, 4))
                    .unwrap()
                    .with_terminal("a", (0, 1), TermType::In)
                    .unwrap()
                    .with_terminal("b", (0, 3), TermType::In)
                    .unwrap()
                    .with_terminal("y", (4, 2), TermType::Out)
                    .unwrap(),
            )
            .unwrap();
        (lib, id)
    }

    fn chain(n: usize) -> Network {
        let (lib, gate) = lib();
        let mut b = NetworkBuilder::new(lib);
        let ms: Vec<ModuleId> = (0..n)
            .map(|i| b.add_instance(format!("u{i}"), gate).unwrap())
            .collect();
        for w in ms.windows(2) {
            let net = format!("n_{}", w[0]);
            b.connect_pin(&net, w[0], "y").unwrap();
            b.connect_pin(&net, w[1], "a").unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn builder_round_trip() {
        let net = chain(3);
        assert_eq!(net.module_count(), 3);
        assert_eq!(net.net_count(), 2);
        let u0 = net.module_by_name("u0").unwrap();
        let u1 = net.module_by_name("u1").unwrap();
        let u2 = net.module_by_name("u2").unwrap();
        assert_eq!(net.connection_count(u0, u1), 1);
        assert_eq!(net.connection_count(u0, u2), 0);
        assert_eq!(net.module_nets(u1).len(), 2);
        let n0 = net.net_by_name("n_m0").unwrap();
        assert!(net.connected(u0, u1, n0));
        assert!(!net.connected(u0, u2, n0));
        assert_eq!(net.net_modules(n0), &[u0, u1]);
    }

    #[test]
    fn drives_follows_out_to_in() {
        let net = chain(2);
        let u0 = net.module_by_name("u0").unwrap();
        let u1 = net.module_by_name("u1").unwrap();
        let (n, o, i) = net.drives(u0, u1).expect("u0 drives u1");
        assert_eq!(net.net(n).name(), "n_m0");
        assert_eq!(net.template_of(u0).terminals()[o].name(), "y");
        assert_eq!(net.template_of(u1).terminals()[i].name(), "a");
        assert!(net.drives(u1, u0).is_none());
        assert!(net.drives(u0, u0).is_none());
    }

    #[test]
    fn system_terminals() {
        let (lib, gate) = lib();
        let mut b = NetworkBuilder::new(lib);
        let u = b.add_instance("u", gate).unwrap();
        let st = b.add_system_terminal("clk", TermType::In).unwrap();
        b.connect("n", st).unwrap();
        b.connect_pin("n", u, "a").unwrap();
        let net = b.finish().unwrap();
        assert_eq!(net.system_term_count(), 1);
        assert_eq!(net.system_term(st).name(), "clk");
        assert_eq!(net.system_term_net(st), Some(net.net_by_name("n").unwrap()));
        assert_eq!(net.pin_type(Pin::System(st)), TermType::In);
        assert_eq!(net.pin_name(Pin::System(st)), "clk");
        assert_eq!(net.pin_name(Pin::Sub { module: u, term: 0 }), "u.a");
    }

    #[test]
    fn duplicate_names_rejected() {
        let (lib, gate) = lib();
        let mut b = NetworkBuilder::new(lib);
        b.add_instance("u", gate).unwrap();
        assert!(matches!(
            b.add_instance("u", gate),
            Err(BuildError::DuplicateInstance { .. })
        ));
        b.add_system_terminal("x", TermType::In).unwrap();
        assert!(b.add_system_terminal("x", TermType::Out).is_err());
    }

    #[test]
    fn unknown_references_rejected() {
        let (lib, gate) = lib();
        let mut b = NetworkBuilder::new(lib);
        let u = b.add_instance("u", gate).unwrap();
        assert!(matches!(
            b.connect_pin("n", u, "zz"),
            Err(BuildError::UnknownTerminal { .. })
        ));
        assert!(b.connect_pin_idx("n", u, 99).is_err());
        assert!(matches!(
            b.add_instance("v", TemplateId::from_index(42)),
            Err(BuildError::UnknownTemplate { .. })
        ));
    }

    #[test]
    fn reconnection_rules() {
        let (lib, gate) = lib();
        let mut b = NetworkBuilder::new(lib);
        let u = b.add_instance("u", gate).unwrap();
        b.connect_pin("n1", u, "a").unwrap();
        // Idempotent: same pin, same net.
        b.connect_pin("n1", u, "a").unwrap();
        // Conflict: same pin, different net.
        assert!(matches!(
            b.connect_pin("n2", u, "a"),
            Err(BuildError::PinReconnected { .. })
        ));
    }

    #[test]
    fn underfilled_net_rejected() {
        let (lib, gate) = lib();
        let mut b = NetworkBuilder::new(lib);
        let u = b.add_instance("u", gate).unwrap();
        b.connect_pin("lonely", u, "a").unwrap();
        assert!(matches!(
            b.finish(),
            Err(BuildError::UnderfilledNet { pins: 1, .. })
        ));
    }

    #[test]
    fn connection_count_to_set() {
        let net = chain(4);
        let ids: Vec<ModuleId> = net.modules().collect();
        // u1 connects to {u0, u2} with one net each.
        let placed = [ids[0], ids[2]];
        assert_eq!(
            net.connection_count_to_set(ids[1], |m| placed.contains(&m)),
            2
        );
        assert_eq!(net.connection_count_to_set(ids[3], |m| placed.contains(&m)), 1);
        assert_eq!(net.connection_count_to_set(ids[0], |_| false), 0);
    }

    #[test]
    fn multipoint_net_counted_once() {
        let (lib, gate) = lib();
        let mut b = NetworkBuilder::new(lib);
        let u0 = b.add_instance("u0", gate).unwrap();
        let u1 = b.add_instance("u1", gate).unwrap();
        b.connect_pin("n", u0, "y").unwrap();
        b.connect_pin("n", u1, "a").unwrap();
        b.connect_pin("n", u1, "b").unwrap();
        let net = b.finish().unwrap();
        assert_eq!(net.connection_count(u0, u1), 1);
        assert_eq!(net.net(net.net_by_name("n").unwrap()).pins().len(), 3);
    }
}
